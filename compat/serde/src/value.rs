//! The owned value tree this serde stand-in serializes through.

use crate::Error;

/// A JSON-compatible number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
}

/// A JSON-compatible value.  Objects preserve insertion order so serialized
/// output is deterministic and mirrors field declaration order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// An ordered key/value mapping.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// A short description of the value's kind, for error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Looks up a key in an object value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Interprets the value as a `u64`.
    pub fn as_u64(&self) -> Result<u64, Error> {
        match self {
            Value::Number(Number::UInt(n)) => Ok(*n),
            Value::Number(Number::Int(n)) if *n >= 0 => Ok(*n as u64),
            Value::Number(Number::Float(f))
                if f.fract() == 0.0 && *f >= 0.0 && *f <= u64::MAX as f64 =>
            {
                Ok(*f as u64)
            }
            other => Err(Error::custom(format!(
                "expected unsigned integer, found {}",
                other.kind()
            ))),
        }
    }

    /// Interprets the value as an `f64` (any number qualifies).
    pub fn as_f64(&self) -> Result<f64, Error> {
        match self {
            Value::Number(Number::Float(f)) => Ok(*f),
            Value::Number(Number::UInt(n)) => Ok(*n as f64),
            Value::Number(Number::Int(n)) => Ok(*n as f64),
            other => Err(Error::custom(format!(
                "expected number, found {}",
                other.kind()
            ))),
        }
    }
}

// A `Value` serializes and deserializes as itself, so callers can parse
// arbitrary JSON into the value tree (`serde_json::from_str::<Value>`) the
// way real serde_json allows.
impl crate::Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl crate::Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}
