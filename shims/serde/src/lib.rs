//! Offline shim of the `serde` crate.
//!
//! Real serde is a zero-copy framework generic over data formats; this shim
//! serves the one format the workspace uses, JSON. [`Serialize`] renders
//! into an owned tree ([`Value`]) that the companion `serde_json` shim
//! writes out as text. [`Deserialize`] pulls from a [`Reader`] over JSON
//! text: `serde_json::from_str` decodes members straight into the target
//! type and builds a tree only when the target is `Value`. Checkpoints are
//! typed state like every other decoded value, so text is the reader's one
//! input. The derive macros come from the local `serde_derive` proc-macro
//! crate and are re-exported here so `use serde::{Serialize, Deserialize}`
//! imports trait and macro together, exactly like upstream.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

mod read;
pub use read::Reader;

/// The serialized data tree (JSON data model).
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Value {
    /// JSON `null`.
    #[default]
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number without a fractional part (covers all of `i64`/`u64`).
    Int(i128),
    /// JSON number with a fractional part.
    Float(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object, insertion-ordered.
    Object(Vec<(String, Value)>),
}

/// Serialization/deserialization error: a human-readable description of the
/// first mismatch between the input and the target type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    /// Build an error from anything displayable.
    pub fn msg(m: impl fmt::Display) -> Self {
        Error(m.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Render `self` into a [`Value`] tree.
pub trait Serialize {
    /// The value tree representing `self`.
    fn to_value(&self) -> Value;
}

/// Read `Self` from JSON text.
pub trait Deserialize: Sized {
    /// Read one value from `r`; errors describe the first mismatch.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;
}

/// Deserializer-side re-exports (`serde::de::DeserializeOwned` bounds).
pub mod de {
    pub use crate::Deserialize as DeserializeOwned;
    pub use crate::Deserialize;

    /// Deserialization-error constructor trait (`serde::de::Error`).
    pub trait Error: Sized {
        /// Build an error from any displayable message.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    impl Error for crate::Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            crate::Error::msg(msg)
        }
    }
}

/// Serializer-side re-exports.
pub mod ser {
    pub use crate::Serialize;
}

impl Value {
    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as `u64`, if a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object's key/value pairs.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(o) => o.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<&String> for Value {
    type Output = Value;
    fn index(&self, key: &String) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.read_value()
    }
}

// ---- Derive support (called from generated code). ----

/// Read a struct field's member into its slot. The first occurrence of a
/// member wins; a duplicate is only checked to be valid.
#[doc(hidden)]
pub fn read_member<T: Deserialize>(
    slot: &mut Option<T>,
    name: &str,
    r: &mut Reader<'_>,
) -> Result<(), Error> {
    if slot.is_some() {
        return r.skip();
    }
    *slot = Some(T::deserialize(r).map_err(|e| in_field(name, e))?);
    Ok(())
}

/// A struct field's value once its object is read: a missing member
/// reads as `null`.
#[doc(hidden)]
pub fn member<T: Deserialize>(slot: Option<T>, name: &str) -> Result<T, Error> {
    match slot {
        Some(v) => Ok(v),
        None => T::deserialize(&mut Reader::from_text("null")).map_err(|e| in_field(name, e)),
    }
}

fn in_field(name: &str, e: Error) -> Error {
    Error(format!("field {name:?}: {e}"))
}

/// Read a tuple element into its slot.
#[doc(hidden)]
pub fn read_element<T: Deserialize>(
    slot: &mut Option<T>,
    idx: usize,
    r: &mut Reader<'_>,
) -> Result<(), Error> {
    *slot = Some(T::deserialize(r).map_err(|e| Error(format!("index {idx}: {e}")))?);
    Ok(())
}

/// A tuple element's value once its array is read.
#[doc(hidden)]
pub fn element<T>(slot: Option<T>, idx: usize) -> Result<T, Error> {
    slot.ok_or_else(|| Error(format!("missing tuple element {idx}")))
}

// ---- Serialize/Deserialize impls for std types. ----

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.skip()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.read_bool()
    }
}

macro_rules! impl_ints {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let i = r.read_int()?;
                <$t>::try_from(i).map_err(|_| Error(format!("integer {i} out of range")))
            }
        }
    )*};
}
impl_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.read_f64()
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Deserialize for f32 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.read_f64().map(|f| f as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.read_string()
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

/// A state type can borrow what it encodes and own what it decodes.
impl<T: Serialize + ToOwned + ?Sized> Serialize for Cow<'_, T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

/// Decoding always yields [`Cow::Owned`].
impl<T: ToOwned + ?Sized> Deserialize for Cow<'_, T>
where
    T::Owned: Deserialize,
{
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        T::Owned::deserialize(r).map(Cow::Owned)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.read_null() {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut items = Vec::new();
        r.read_seq(|_, r| {
            items.push(T::deserialize(r)?);
            Ok(())
        })?;
        Ok(items)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let items = Vec::<T>::deserialize(r)?;
        let got = items.len();
        items
            .try_into()
            .map_err(|_| Error(format!("expected array of {N} elements, got {got}")))
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for std::collections::VecDeque<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        Vec::<T>::deserialize(r).map(Into::into)
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sorted for deterministic output (HashMap iteration order isn't).
        let mut pairs: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        pairs.sort_by(|(a, _), (b, _)| a.cmp(b));
        Value::Object(pairs)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut map = HashMap::new();
        // A repeated key keeps its last value.
        r.read_map(|k, r| {
            map.insert(k.to_string(), V::deserialize(r)?);
            Ok(())
        })?;
        Ok(map)
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        // Already sorted by key.
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut map = std::collections::BTreeMap::new();
        // A repeated key keeps its last value.
        r.read_map(|k, r| {
            map.insert(k.to_string(), V::deserialize(r)?);
            Ok(())
        })?;
        Ok(map)
    }
}

macro_rules! impl_tuples {
    ($(($($t:ident : $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            #[allow(non_snake_case)]
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                $(let mut $t = None;)+
                // Elements past the tuple's arity are ignored.
                r.read_seq(|i, r| match i {
                    $($i => read_element(&mut $t, $i, r),)+
                    _ => r.skip(),
                })?;
                Ok(($(element($t, $i)?,)+))
            }
        }
    )*};
}
impl_tuples! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read<T: Deserialize>(text: &str) -> Result<T, Error> {
        let mut r = Reader::from_text(text);
        let v = T::deserialize(&mut r)?;
        r.finish().map(|()| v)
    }

    #[test]
    fn primitives_read_from_text() {
        assert_eq!(read::<u64>("42").unwrap(), 42);
        assert_eq!(read::<f64>("1.5").unwrap(), 1.5);
        assert!(read::<bool>("true").unwrap());
        assert_eq!(read::<String>(r#""hi""#).unwrap(), "hi");
    }

    #[test]
    fn out_of_range_integers_error() {
        assert!(read::<u8>("300").is_err());
        assert!(read::<u64>("-1").is_err());
    }

    #[test]
    fn option_and_vec_read_from_text() {
        let v: Option<u32> = None;
        assert_eq!(v.to_value(), Value::Null);
        assert_eq!(read::<Option<u32>>("null").unwrap(), None);
        assert_eq!(read::<Vec<u32>>("[1,2,3]").unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn cow_borrows_to_encode_and_owns_after_decode() {
        let xs = [1u32, 2];
        let borrowed: Cow<'_, [u32]> = Cow::Borrowed(&xs);
        assert_eq!(borrowed.to_value(), xs.to_value());
        let decoded: Cow<'_, [u32]> = read("[1,2]").unwrap();
        assert!(matches!(decoded, Cow::Owned(ref v) if v == &xs));
    }

    #[test]
    fn map_serialization_is_sorted() {
        let mut m = HashMap::new();
        m.insert("b".to_string(), 2u32);
        m.insert("a".to_string(), 1u32);
        let Value::Object(pairs) = m.to_value() else {
            panic!()
        };
        assert_eq!(pairs[0].0, "a");
        assert_eq!(read::<HashMap<String, u32>>(r#"{"b":2,"a":1}"#).unwrap(), m);
    }

    #[test]
    fn a_missing_member_reads_as_null() {
        assert_eq!(member::<Option<u32>>(None, "y").unwrap(), None);
        assert!(member::<f64>(None, "y").unwrap().is_nan());
        let err = member::<u32>(None, "y").unwrap_err();
        assert_eq!(err.0, r#"field "y": expected integer, got null"#);
    }

    #[test]
    fn nan_round_trips_as_null() {
        assert!(matches!(f64::NAN.to_value(), Value::Float(f) if f.is_nan()));
        assert!(read::<f64>("null").unwrap().is_nan());
    }

    #[test]
    fn indexing_missing_members_yields_null() {
        let obj = Value::Object(vec![("x".into(), Value::Int(1))]);
        assert_eq!(obj["x"].as_u64(), Some(1));
        assert_eq!(obj["nope"], Value::Null);
        assert_eq!(Value::Array(vec![])[3], Value::Null);
    }
}
