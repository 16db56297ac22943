//! Run-length encoding (§2.1).
//!
//! "An encoded RLE stream consists of a sequence of pairs (value, count);
//! the value is the uncompressed value, and the count specifies how many
//! times the value is repeated in consecutive rows." We store cumulative
//! run *ends* instead of counts so random access is a binary search and
//! range decoding resumes mid-run in O(log runs).

/// A run-length-encoded integer column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RleColumn {
    values: Vec<i64>,
    /// `ends[r]` = index one past the last row of run `r`; strictly
    /// increasing; `ends.last() == len`.
    ends: Vec<u32>,
}

impl RleColumn {
    /// Encode `values`.
    pub fn encode(values: &[i64]) -> RleColumn {
        assert!(values.len() <= u32::MAX as usize, "RLE column too long");
        let mut run_values = Vec::new();
        let mut ends = Vec::new();
        let mut iter = values.iter().enumerate();
        if let Some((_, &first)) = iter.next() {
            run_values.push(first);
            #[expect(
                clippy::unwrap_used,
                reason = "`run_values` holds at least `first`, pushed above"
            )]
            for (i, &v) in iter {
                if v != *run_values.last().unwrap() {
                    ends.push(i as u32);
                    run_values.push(v);
                }
            }
            ends.push(values.len() as u32);
        }
        RleColumn { values: run_values, ends }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0) as usize
    }

    /// True if the column stores no rows.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Number of runs.
    pub fn num_runs(&self) -> usize {
        self.values.len()
    }

    /// The run values.
    pub fn run_values(&self) -> &[i64] {
        &self.values
    }

    /// Cumulative (exclusive) run end rows; strictly increasing, one entry
    /// per run, `run_ends().last() == len`. Together with [`run_values`]
    /// this exposes the compressed form for run-wise operators that filter
    /// and aggregate in O(runs) without decoding.
    ///
    /// [`run_values`]: RleColumn::run_values
    pub fn run_ends(&self) -> &[u32] {
        &self.ends
    }

    /// Index of the run containing `row` (for resuming a run walk mid-batch).
    pub fn run_index_of(&self, row: usize) -> usize {
        self.run_of(row)
    }

    /// Payload size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.values.len() * 8 + self.ends.len() * 4
    }

    /// Index of the run containing `row`.
    fn run_of(&self, row: usize) -> usize {
        debug_assert!(row < self.len());
        // First run whose end exceeds `row`.
        self.ends.partition_point(|&e| e as usize <= row)
    }

    /// Decode logical values for rows `[start, start + out.len())`.
    pub fn decode_i64_into(&self, start: usize, out: &mut [i64]) {
        if out.is_empty() {
            return;
        }
        assert!(start + out.len() <= self.len(), "range out of bounds");
        let mut run = self.run_of(start);
        let mut filled = 0usize;
        let mut row = start;
        while filled < out.len() {
            let run_end = self.ends[run] as usize;
            let take = (run_end - row).min(out.len() - filled);
            out[filled..filled + take].fill(self.values[run]);
            filled += take;
            row += take;
            run += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_runs() {
        let values: Vec<i64> = [(5i64, 3usize), (-1, 1), (5, 4), (0, 2)]
            .iter()
            .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
            .collect();
        let col = RleColumn::encode(&values);
        assert_eq!(col.num_runs(), 4);
        assert_eq!(col.len(), 10);
        let mut out = vec![0i64; 10];
        col.decode_i64_into(0, &mut out);
        assert_eq!(out, values);
    }

    #[test]
    fn decode_mid_run_ranges() {
        let values: Vec<i64> = (0..20).flat_map(|r| std::iter::repeat_n(r as i64, 7)).collect();
        let col = RleColumn::encode(&values);
        for start in [0usize, 1, 6, 7, 8, 100, 133] {
            let n = (values.len() - start).min(13);
            let mut out = vec![0i64; n];
            col.decode_i64_into(start, &mut out);
            assert_eq!(out, &values[start..start + n], "start={start}");
        }
    }

    #[test]
    fn no_runs_degenerates() {
        let values: Vec<i64> = (0..100).collect();
        let col = RleColumn::encode(&values);
        assert_eq!(col.num_runs(), 100);
        let mut out = vec![0i64; 100];
        col.decode_i64_into(0, &mut out);
        assert_eq!(out, values);
    }

    #[test]
    fn empty_column() {
        let col = RleColumn::encode(&[]);
        assert!(col.is_empty());
        assert_eq!(col.len(), 0);
        let mut out = [];
        col.decode_i64_into(0, &mut out);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn decode_oob_panics() {
        let col = RleColumn::encode(&[1, 1, 2]);
        let mut out = vec![0i64; 2];
        col.decode_i64_into(2, &mut out);
    }
}
