//! One JSON writer for every machine-readable report `sdq` prints.
//!
//! A report is built as one [`Json`] value — [`json!`](crate::json!) for a
//! literal object, `collect()` for an array or for `(key, value)` pairs —
//! and printed once through its `Display`: members separated by `", "`,
//! keys by `": "`, objects in insertion order, one escaper for every
//! string, and `null` for a non-finite number. `{}` prints one line (a
//! JSON-lines record); `{:#}` puts each member of a top-level object on a
//! line of its own, nested values still inline.

use std::fmt::{self, Write};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Printed exactly.
    Uint(u64),
    /// The shortest form that reads back the same, or exactly `places`
    /// decimals ([`Json::fixed`]); a non-finite number prints as `null`.
    Float(f64, Option<usize>),
    Str(String),
    Array(Vec<Json>),
    /// Members in insertion order.
    Object(Vec<(String, Json)>),
}

/// `json! { "key": value, … }`: a [`Json`] object of the given members, in
/// order; each value is anything `Into<Json>`.
#[macro_export]
macro_rules! json {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Json::Object(vec![$(($key.to_string(), $crate::json::Json::from($value))),*])
    };
}

impl Json {
    /// This object with one more member at the end.
    ///
    /// # Panics
    /// If `self` is not an object.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Object(members) => members.push((key.to_string(), value.into())),
            other => panic!("Json::with on a non-object: {other}"),
        }
        self
    }

    /// `value` printed with exactly `places` decimals.
    pub fn fixed(value: f64, places: usize) -> Json {
        Json::Float(value, Some(places))
    }

    /// Prints `self`; `top` puts an object's members one to a line.
    fn write(&self, f: &mut fmt::Formatter<'_>, top: bool) -> fmt::Result {
        let (open, sep, close) = if top {
            ("{\n  ", ",\n  ", "\n}")
        } else {
            ("{", ", ", "}")
        };
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Uint(n) => write!(f, "{n}"),
            Json::Float(v, _) if !v.is_finite() => f.write_str("null"),
            Json::Float(v, Some(places)) => write!(f, "{v:.places$}"),
            Json::Float(v, None) => write!(f, "{v}"),
            Json::Str(s) => escape(f, s),
            Json::Array(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    f.write_str(if i > 0 { ", " } else { "" })?;
                    item.write(f, false)?;
                }
                f.write_char(']')
            }
            Json::Object(members) if members.is_empty() => f.write_str("{}"),
            Json::Object(members) => {
                f.write_str(open)?;
                for (i, (key, value)) in members.iter().enumerate() {
                    f.write_str(if i > 0 { sep } else { "" })?;
                    escape(f, key)?;
                    f.write_str(": ")?;
                    value.write(f, false)?;
                }
                f.write_str(close)
            }
        }
    }
}

/// The one escaper: quotes, backslashes and control characters.
fn escape(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, f.alternate())
    }
}

macro_rules! from {
    ($($t:ty => |$v:ident| $value:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $value
            }
        }
    )*};
}
from! {
    bool => |b| Json::Bool(b),
    u8 => |n| Json::Uint(n.into()),
    u32 => |n| Json::Uint(n.into()),
    u64 => |n| Json::Uint(n),
    usize => |n| Json::Uint(n as u64),
    f64 => |v| Json::Float(v, None),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Collects values into an array.
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Collects `(key, value)` pairs into an object, in order.
impl<K: Into<String>, V: Into<Json>> FromIterator<(K, V)> for Json {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(members: I) -> Json {
        let members = members.into_iter().map(|(k, v)| (k.into(), v.into()));
        Json::Object(members.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prints_inline_and_top_level_per_line() {
        let v = json! {
            "k": 16u64, "ok": true, "none": Json::Null,
            "list": Json::from_iter([1u64, 2]), "nested": json! { "a": "x" },
        };
        assert_eq!(
            v.to_string(),
            r#"{"k": 16, "ok": true, "none": null, "list": [1, 2], "nested": {"a": "x"}}"#
        );
        assert_eq!(
            format!("{v:#}"),
            "{\n  \"k\": 16,\n  \"ok\": true,\n  \"none\": null,\n  \"list\": [1, 2],\n  \
             \"nested\": {\"a\": \"x\"}\n}"
        );
        assert_eq!(format!("{:#}", json! {}), "{}");
        assert_eq!(Json::Array(vec![]).to_string(), "[]");
        assert_eq!(
            json! { "a": 1u64 }.with("b", 2u64).to_string(),
            r#"{"a": 1, "b": 2}"#
        );
    }

    #[test]
    fn numbers_print_exact_fixed_or_null() {
        assert_eq!(Json::from(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::from(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Json::from(3.0).to_string(), "3");
        assert_eq!(Json::fixed(0.32, 3).to_string(), "0.320");
        assert_eq!(Json::fixed(2.0, 1).to_string(), "2.0");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::from(bad).to_string(), "null");
            assert_eq!(Json::fixed(bad, 4).to_string(), "null");
        }
    }

    #[test]
    fn strings_and_keys_are_escaped() {
        let v = Json::from_iter([("a\"b", "q\"\\\n\u{1}é")]);
        assert_eq!(v.to_string(), r#"{"a\"b": "q\"\\\u000a\u0001é"}"#);
    }

    #[test]
    fn collects_arrays_and_objects_in_order() {
        let arr: Json = (1u64..=3).collect();
        assert_eq!(arr.to_string(), "[1, 2, 3]");
        let obj: Json = [("z", 1u64), ("a", 2)].into_iter().collect();
        assert_eq!(obj.to_string(), r#"{"z": 1, "a": 2}"#);
        assert_eq!(Json::from(None::<u64>).to_string(), "null");
        assert_eq!(Json::from(Some(5u64)).to_string(), "5");
    }
}
