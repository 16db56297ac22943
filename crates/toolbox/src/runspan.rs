//! Run-span selection vectors and encoding-specialized kernels.
//!
//! A *run-span vector* is the run-granular counterpart of the selection
//! byte vector (§4): instead of one byte per row it stores the accepted
//! rows as sorted, disjoint, coalesced `[start, start+len)` spans. Filters
//! over run-length-encoded columns produce it in O(runs), and downstream
//! SUM/COUNT consume it as a value×len multiply-accumulate over O(runs)
//! instead of O(rows) — the compression-aware operator model (MorphStore)
//! grafted onto BIPie's strategy machinery. When runs fragment, the chooser
//! leaves the segment to the per-row strategies.
//!
//! Every `enc_*` kernel validates its invariants (debug asserts) and runs
//! scalar code: the work is O(runs), far off the SIMD profitability cliff,
//! so there is no kernel table. The unit tests hold each kernel to an
//! independent per-row oracle (`mask_of`, `rows_of`).

/// One accepted row range: rows `[start, start + len)`, batch-relative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First accepted row (relative to the batch the vector covers).
    pub start: u32,
    /// Number of accepted rows; always non-zero in a valid vector.
    pub len: u32,
}

impl Span {
    /// End row (exclusive).
    #[inline]
    pub fn end(self) -> u32 {
        self.start + self.len
    }
}

/// A sorted, disjoint, coalesced list of accepted row spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunSpanVec {
    spans: Vec<Span>,
}

impl RunSpanVec {
    /// An empty vector (nothing selected).
    pub fn new() -> RunSpanVec {
        RunSpanVec { spans: Vec::new() }
    }

    /// Drop all spans (reuse the allocation).
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Replace the contents with one span covering `[0, len)`.
    pub fn set_full(&mut self, len: usize) {
        self.spans.clear();
        if len > 0 {
            self.spans.push(Span { start: 0, len: len as u32 });
        }
    }

    /// Append an accepted range, coalescing with the previous span when
    /// adjacent. Ranges must arrive in increasing, non-overlapping order.
    #[inline]
    pub fn push(&mut self, start: u32, len: u32) {
        if len == 0 {
            return;
        }
        if let Some(last) = self.spans.last_mut() {
            debug_assert!(last.end() <= start, "spans must be pushed in order");
            if last.end() == start {
                last.len += len;
                return;
            }
        }
        self.spans.push(Span { start, len });
    }

    /// The spans, sorted and disjoint.
    #[inline]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans.
    #[inline]
    pub fn num_spans(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing is selected.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total selected rows (the span-vector analogue of `count_selected`).
    pub fn selected_rows(&self) -> usize {
        self.spans.iter().map(|s| s.len as usize).sum()
    }
}

/// Debug-build validation of the run-span invariants: sorted, disjoint,
/// coalesced, non-empty spans, all inside a domain of `rows` rows.
#[inline]
pub fn debug_assert_spans(spans: &[Span], rows: usize) {
    debug_assert!(
        spans.windows(2).all(|w| w[0].end() < w[1].start),
        "spans must be sorted, disjoint, and coalesced"
    );
    debug_assert!(spans.iter().all(|s| s.len > 0), "empty span");
    debug_assert!(spans.last().is_none_or(|s| (s.end() as usize) <= rows), "span out of domain");
}

/// Intersect two run-span vectors into `out` (`out` is cleared first).
pub fn enc_intersect_spans(a: &[Span], b: &[Span], out: &mut RunSpanVec) {
    debug_assert_spans(a, usize::MAX);
    debug_assert_spans(b, usize::MAX);
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let lo = a[i].start.max(b[j].start);
        let hi = a[i].end().min(b[j].end());
        if lo < hi {
            out.push(lo, hi - lo);
        }
        if a[i].end() <= b[j].end() {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// SUM over an RLE column restricted to accepted spans: walks the run list
/// and the span list together, accumulating `value × overlap` per run —
/// O(spans + touched runs), never O(rows).
///
/// `values`/`ends` are the column's run values and cumulative (exclusive)
/// run end rows; `base` maps span-relative row 0 to an absolute column row.
pub fn enc_sum_runs_spans(values: &[i64], ends: &[u32], base: usize, spans: &[Span]) -> i64 {
    debug_assert_runs(values, ends);
    debug_assert_spans(spans, usize::MAX);
    let mut sum = 0i64;
    let mut run = 0usize;
    for s in spans {
        let mut row = base + s.start as usize;
        let end = row + s.len as usize;
        // Spans are sorted, so the run cursor only moves forward; resync
        // with a partition point only when the span jumps past it.
        run = advance_run(ends, run, row);
        while row < end {
            let run_end = (ends[run] as usize).min(end);
            sum = sum.wrapping_add(values[run].wrapping_mul((run_end - row) as i64));
            row = run_end;
            if row < end {
                run += 1;
            }
        }
    }
    sum
}

/// MIN/MAX over an RLE column restricted to accepted spans; `None` when no
/// span selects any row.
pub fn enc_minmax_runs_spans(
    values: &[i64],
    ends: &[u32],
    base: usize,
    spans: &[Span],
) -> Option<(i64, i64)> {
    debug_assert_runs(values, ends);
    debug_assert_spans(spans, usize::MAX);
    let mut acc: Option<(i64, i64)> = None;
    let mut run = 0usize;
    for s in spans {
        let mut row = base + s.start as usize;
        let end = row + s.len as usize;
        run = advance_run(ends, run, row);
        while row < end {
            let v = values[run];
            acc = Some(match acc {
                None => (v, v),
                Some((mn, mx)) => (mn.min(v), mx.max(v)),
            });
            row = (ends[run] as usize).min(end);
            if row < end {
                run += 1;
            }
        }
    }
    acc
}

/// Filter dictionary codes by membership in a pre-evaluated id-bitset:
/// `out[i]` becomes `SELECTED` when bit `codes[i]` of `bitset` is set. The
/// predicate is evaluated once over the dictionary (building the bitset)
/// instead of once per row — dictionary predicate pre-evaluation.
pub fn enc_filter_codes_bitset(codes: &[u32], bitset: &[u64], out: &mut [u8]) {
    debug_assert_eq!(codes.len(), out.len(), "one selection byte per code");
    debug_assert!(
        codes.iter().all(|&c| (c as usize) < bitset.len() * 64),
        "code outside the bitset domain"
    );
    for (o, &c) in out.iter_mut().zip(codes) {
        let word = bitset[(c >> 6) as usize];
        let bit = (word >> (c & 63)) & 1;
        // Branch-free widen: 1 -> 0xFF, 0 -> 0x00.
        *o = (bit as u8).wrapping_neg();
    }
}

/// Move the run cursor forward to the run containing `row` (spans only move
/// forward, so a binary search over the remaining tail keeps this cheap).
#[inline]
fn advance_run(ends: &[u32], from: usize, row: usize) -> usize {
    if from < ends.len() && (ends[from] as usize) > row {
        return from;
    }
    from + ends[from..].partition_point(|&e| (e as usize) <= row)
}

/// Debug-build validation of an RLE run list: one end per value, strictly
/// increasing cumulative ends.
#[inline]
fn debug_assert_runs(values: &[i64], ends: &[u32]) {
    debug_assert_eq!(values.len(), ends.len(), "one end per run value");
    debug_assert!(ends.windows(2).all(|w| w[0] < w[1]), "run ends must strictly increase");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::selvec::{REJECTED, SELECTED};

    /// Naive per-row oracle: expand runs to rows, expand spans to a mask.
    fn rows_of(values: &[i64], ends: &[u32]) -> Vec<i64> {
        let mut out = Vec::new();
        let mut prev = 0u32;
        for (&v, &e) in values.iter().zip(ends) {
            out.extend(std::iter::repeat_n(v, (e - prev) as usize));
            prev = e;
        }
        out
    }

    fn mask_of(spans: &[Span], rows: usize) -> Vec<bool> {
        let mut m = vec![false; rows];
        for s in spans {
            for r in s.start..s.end() {
                m[r as usize] = true;
            }
        }
        m
    }

    fn random_case(rng: &mut Rng) -> (Vec<i64>, Vec<u32>, usize, RunSpanVec) {
        let rows = 1 + (rng.next_u64() % 500) as usize;
        let mut ends = Vec::new();
        let mut values = Vec::new();
        let mut at = 0usize;
        while at < rows {
            at += 1 + (rng.next_u64() % 40) as usize;
            at = at.min(rows);
            ends.push(at as u32);
            values.push(rng.next_u64() as i64 % 1000 - 500);
        }
        // A batch window inside the column, and random spans within it.
        let base = (rng.next_u64() % rows as u64) as usize;
        let window = rows - base;
        let mut spans = RunSpanVec::new();
        let mut row = 0usize;
        while row < window {
            let gap = (rng.next_u64() % 30) as usize;
            let len = 1 + (rng.next_u64() % 50) as usize;
            row += gap;
            if row >= window {
                break;
            }
            let len = len.min(window - row);
            spans.push(row as u32, len as u32);
            row += len + 1; // +1 keeps consecutive pushes disjoint
        }
        (values, ends, base, spans)
    }

    #[test]
    fn push_coalesces_adjacent() {
        let mut v = RunSpanVec::new();
        v.push(0, 3);
        v.push(3, 2);
        v.push(7, 1);
        v.push(9, 0); // ignored
        assert_eq!(v.spans(), &[Span { start: 0, len: 5 }, Span { start: 7, len: 1 }]);
        assert_eq!(v.selected_rows(), 6);
        assert_eq!(v.num_spans(), 2);
    }

    #[test]
    fn set_full_covers_domain() {
        let mut v = RunSpanVec::new();
        v.set_full(10);
        assert_eq!(v.spans(), &[Span { start: 0, len: 10 }]);
        v.set_full(0);
        assert!(v.is_empty());
        assert_eq!(v.selected_rows(), 0);
    }

    #[test]
    fn intersect_matches_mask_and() {
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..100 {
            let (_, _, _, a) = random_case(&mut rng);
            let (_, _, _, b) = random_case(&mut rng);
            let mut out = RunSpanVec::new();
            enc_intersect_spans(a.spans(), b.spans(), &mut out);
            let rows = 600;
            let ma = mask_of(a.spans(), rows);
            let mb = mask_of(b.spans(), rows);
            let mo = mask_of(out.spans(), rows);
            for i in 0..rows {
                assert_eq!(mo[i], ma[i] && mb[i], "row {i}");
            }
            // Output upholds the coalesced invariant.
            assert!(out.spans().windows(2).all(|w| w[0].end() < w[1].start));
        }
    }

    #[test]
    fn sum_and_minmax_match_per_row_oracle() {
        let mut rng = Rng::seed_from_u64(23);
        for _ in 0..200 {
            let (values, ends, base, spans) = random_case(&mut rng);
            let rows = rows_of(&values, &ends);
            let window = rows.len() - base;
            let mask = mask_of(spans.spans(), window);
            let mut want_sum = 0i64;
            let mut want_mm: Option<(i64, i64)> = None;
            for (i, &m) in mask.iter().enumerate() {
                if m {
                    let v = rows[base + i];
                    want_sum += v;
                    want_mm = Some(match want_mm {
                        None => (v, v),
                        Some((mn, mx)) => (mn.min(v), mx.max(v)),
                    });
                }
            }
            assert_eq!(enc_sum_runs_spans(&values, &ends, base, spans.spans()), want_sum);
            assert_eq!(enc_minmax_runs_spans(&values, &ends, base, spans.spans()), want_mm);
        }
    }

    #[test]
    fn sum_handles_spans_inside_one_run() {
        // One giant run; spans slice it arbitrarily.
        let values = [7i64];
        let ends = [1000u32];
        let spans = [Span { start: 10, len: 5 }, Span { start: 100, len: 1 }];
        assert_eq!(enc_sum_runs_spans(&values, &ends, 0, &spans), 7 * 6);
        assert_eq!(enc_minmax_runs_spans(&values, &ends, 0, &spans), Some((7, 7)));
        assert_eq!(enc_sum_runs_spans(&values, &ends, 0, &[]), 0);
        assert_eq!(enc_minmax_runs_spans(&values, &ends, 0, &[]), None);
    }

    #[test]
    fn bitset_membership_matches_per_code_test() {
        let mut rng = Rng::seed_from_u64(41);
        for _ in 0..50 {
            let k = 1 + (rng.next_u64() % 300) as usize;
            let bitset: Vec<u64> = (0..k.div_ceil(64)).map(|_| rng.next_u64()).collect();
            let codes: Vec<u32> = (0..257).map(|_| (rng.next_u64() % k as u64) as u32).collect();
            let mut sel = vec![0u8; codes.len()];
            enc_filter_codes_bitset(&codes, &bitset, &mut sel);
            for (i, &c) in codes.iter().enumerate() {
                let want = (bitset[(c >> 6) as usize] >> (c & 63)) & 1 == 1;
                assert_eq!(sel[i], if want { SELECTED } else { REJECTED }, "i={i} code={c}");
            }
        }
    }
}
