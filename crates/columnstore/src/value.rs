//! Logical value types.
//!
//! The paper's queries touch integers (≤ 8 bytes), dates, fixed-point
//! decimals, and low-cardinality strings. All non-string values normalize
//! to `i64` for storage — dates as days since the Unix epoch, decimals as
//! scaled integers (cents for the TPC-H money columns) — so one integer
//! encoding pipeline serves every numeric type, exactly as a columnstore
//! does in practice.

/// A calendar date stored as days since 1970-01-01 (can be negative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date(pub i32);

impl Date {
    /// Build from a civil year/month/day using the days-from-civil
    /// algorithm (exact for the proleptic Gregorian calendar).
    pub fn from_ymd(y: i32, m: u32, d: u32) -> Date {
        assert!((1..=12).contains(&m), "month {m} out of range");
        assert!((1..=31).contains(&d), "day {d} out of range");
        let y = if m <= 2 { y - 1 } else { y } as i64;
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let mp = (m as i64 + 9) % 12; // Mar=0 .. Feb=11
        let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        Date((era * 146097 + doe - 719468) as i32)
    }

    /// Decompose into (year, month, day).
    pub fn to_ymd(self) -> (i32, u32, u32) {
        let z = self.0 as i64 + 719468;
        let era = if z >= 0 { z } else { z - 146096 } / 146097;
        let doe = z - era * 146097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
        let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32; // [1, 12]
        ((if m <= 2 { y + 1 } else { y }) as i32, m, d)
    }

    /// Days since the Unix epoch.
    #[inline]
    pub fn days(self) -> i32 {
        self.0
    }

    /// Add a number of days (may be negative).
    pub fn plus_days(self, days: i32) -> Date {
        Date(self.0 + days)
    }
}

impl std::fmt::Display for Date {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (y, m, d) = self.to_ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

/// Logical column types supported by the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicalType {
    /// 64-bit signed integer (also holds narrower integer columns).
    I64,
    /// Calendar date, stored as days since 1970-01-01.
    Date,
    /// Fixed-point decimal with 2 fractional digits, stored as hundredths
    /// (TPC-H money semantics).
    Decimal,
    /// Variable-length string; always dictionary encoded.
    Str,
}

impl LogicalType {
    /// True for types stored through the integer encoding pipeline.
    pub fn is_integerlike(self) -> bool {
        !matches!(self, LogicalType::Str)
    }
}

/// A single value of any logical type.
///
/// Strings are shared `Arc<str>` payloads: group keys and dictionary
/// lookups clone values per row (or per group, per segment), and a
/// refcount bump beats re-allocating the bytes every time. Construct via
/// `Value::Str("a".into())` exactly as with the owned form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// Integer.
    I64(i64),
    /// Date.
    Date(Date),
    /// Decimal, as hundredths (`1234` = `12.34`).
    Decimal(i64),
    /// String (shared, immutable).
    Str(std::sync::Arc<str>),
}

impl Value {
    /// The value's logical type.
    pub fn logical_type(&self) -> LogicalType {
        match self {
            Value::I64(_) => LogicalType::I64,
            Value::Date(_) => LogicalType::Date,
            Value::Decimal(_) => LogicalType::Decimal,
            Value::Str(_) => LogicalType::Str,
        }
    }

    /// Normalize to the storage integer, if integer-like.
    pub fn as_storage_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::Date(d) => Some(d.0 as i64),
            Value::Decimal(c) => Some(*c),
            Value::Str(_) => None,
        }
    }

    /// Borrow the string contents, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Reconstruct a typed value from its storage integer.
    pub fn from_storage_i64(ty: LogicalType, v: i64) -> Value {
        match ty {
            LogicalType::I64 => Value::I64(v),
            LogicalType::Date => Value::Date(Date(v as i32)),
            LogicalType::Decimal => Value::Decimal(v),
            #[expect(
                clippy::panic,
                reason = "type-confusion guard: callers obtain `ty` from the column they read the \
                          integer out of, and string columns never produce storage integers"
            )]
            LogicalType::Str => panic!("strings have no integer storage form"),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: within a type, natural order; across types (which never
    /// happens for values of one column), a fixed type rank.
    fn cmp(&self, other: &Value) -> std::cmp::Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::I64(_) => 0,
                Value::Date(_) => 1,
                Value::Decimal(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::I64(a), Value::I64(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            (Value::Decimal(a), Value::Decimal(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::I64(v) => write!(f, "{v}"),
            Value::Date(d) => write!(f, "{d}"),
            Value::Decimal(c) => {
                let sign = if *c < 0 { "-" } else { "" };
                let a = c.unsigned_abs();
                write!(f, "{sign}{}.{:02}", a / 100, a % 100)
            }
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_epoch() {
        assert_eq!(Date::from_ymd(1970, 1, 1).days(), 0);
        assert_eq!(Date::from_ymd(1970, 1, 2).days(), 1);
        assert_eq!(Date::from_ymd(1969, 12, 31).days(), -1);
    }

    #[test]
    fn date_roundtrip_wide_range() {
        for &(y, m, d) in &[
            (1992, 1, 2),
            (1998, 12, 1),
            (1998, 9, 2),
            (2000, 2, 29),
            (1900, 3, 1),
            (2100, 12, 31),
        ] {
            let date = Date::from_ymd(y, m, d);
            assert_eq!(date.to_ymd(), (y, m, d));
        }
    }

    #[test]
    fn date_known_values() {
        // TPC-H Q1 cutoff: 1998-12-01 minus 90 days = 1998-09-02.
        let cutoff = Date::from_ymd(1998, 12, 1).plus_days(-90);
        assert_eq!(cutoff, Date::from_ymd(1998, 9, 2));
    }

    #[test]
    fn date_display() {
        assert_eq!(Date::from_ymd(1998, 9, 2).to_string(), "1998-09-02");
    }

    #[test]
    fn decimal_display() {
        assert_eq!(Value::Decimal(123456).to_string(), "1234.56");
        assert_eq!(Value::Decimal(-5).to_string(), "-0.05");
        assert_eq!(Value::Decimal(0).to_string(), "0.00");
    }

    #[test]
    fn storage_roundtrip() {
        for v in [Value::I64(-42), Value::Date(Date::from_ymd(1995, 6, 17)), Value::Decimal(999)] {
            let ty = v.logical_type();
            let stored = v.as_storage_i64().unwrap();
            assert_eq!(Value::from_storage_i64(ty, stored), v);
        }
        assert_eq!(Value::Str("x".into()).as_storage_i64(), None);
    }
}
