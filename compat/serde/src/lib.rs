//! Offline stand-in for the `serde` crate.
//!
//! The container this workspace builds in has no access to a crate registry,
//! so this crate (together with its siblings `serde_derive` and `serde_json`
//! under `compat/`) provides exactly the serialization surface the MISP
//! workspace uses: the `Serialize` trait, its derive macro for structs with
//! named fields, and a JSON value tree.  The stand-ins serialize only: the one
//! thing read back is JSON text parsed into a [`Value`], so the
//! `Deserialize` trait has a single impl, for `Value` itself.
//!
//! Design notes and deliberate deviations from real serde:
//!
//! - Serialization goes through an owned [`value::Value`] tree instead of
//!   serde's visitor architecture.  `Serialize::to_value` replaces
//!   `serialize`.
//! - Maps serialize as arrays of `[key, value]` pairs, which keeps any
//!   serializable key type without the string-key restriction.
//! - The derive covers only structs with named fields, which serialize as
//!   objects in declaration order; see `serde_derive`.
//!
//! To switch to real serde, point the `serde`, `serde_json` and the dev-only
//! `proptest`/`criterion` entries of `[workspace.dependencies]` at crates.io.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::BuildHasher;
use std::rc::Rc;
use std::sync::Arc;

pub mod value;

pub use value::{Number, Value};

#[cfg(feature = "derive")]
pub use serde_derive::Serialize;

/// Error produced by serialization or by parsing JSON text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error from a message.
    pub fn custom<T: fmt::Display>(message: T) -> Self {
        Error {
            message: message.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// A type that can be converted into the serde-compatible value tree.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

/// A type that can be rebuilt from the serde-compatible value tree.  Only
/// [`Value`] implements it: `serde_json::from_str` parses to a `Value`.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a [`Value`].
    fn from_value(value: &Value) -> Result<Self, Error>;
}

macro_rules! impl_unsigned {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                Value::Number(Number::UInt(u64::from(*self)))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64);

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::Number(Number::UInt(*self as u64))
    }
}

macro_rules! impl_signed {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                let v = i64::from(*self);
                if v < 0 {
                    Value::Number(Number::Int(v))
                } else {
                    Value::Number(Number::UInt(v as u64))
                }
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64);

impl Serialize for isize {
    fn to_value(&self) -> Value {
        (*self as i64).to_value()
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::Float(*self))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::Float(f64::from(*self)))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Rc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

fn seq_to_value<'a, T: Serialize + 'a>(items: impl Iterator<Item = &'a T>) -> Value {
    Value::Array(items.map(Serialize::to_value).collect())
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        seq_to_value(self.iter())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        seq_to_value(self.iter())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        seq_to_value(self.iter())
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn to_value(&self) -> Value {
        seq_to_value(self.iter())
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        seq_to_value(self.iter())
    }
}

impl<T: Serialize, S: BuildHasher> Serialize for HashSet<T, S> {
    fn to_value(&self) -> Value {
        seq_to_value(self.iter())
    }
}

fn map_to_value<'a, K: Serialize + 'a, V: Serialize + 'a>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) -> Value {
    Value::Array(
        entries
            .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
            .collect(),
    )
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        map_to_value(self.iter())
    }
}

impl<K: Serialize, V: Serialize, S: BuildHasher> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        map_to_value(self.iter())
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

macro_rules! impl_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
    };
}

impl_tuple!(A: 0);
impl_tuple!(A: 0, B: 1);
impl_tuple!(A: 0, B: 1, C: 2);
impl_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);
