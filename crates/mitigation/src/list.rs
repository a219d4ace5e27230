//! A bounded list stored inline.

use serde::json::{Error, Value};
use serde::{Deserialize, Serialize};

/// At most `N` items stored inline, so the configs that hold ladders and
/// trip tables stay `Copy` and the per-sample path never allocates
/// (DESIGN.md §9). Slots past the length hold `T::default()`.
///
/// Serializes as a plain array of its items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InlineList<T, const N: usize> {
    items: [T; N],
    len: usize,
}

impl<T: Copy + Default, const N: usize> InlineList<T, N> {
    /// A list of `items`, in order.
    ///
    /// Only the capacity is checked here; each list type's own `validate`
    /// checks what its items mean, so deserialized configs surface their
    /// problems through the normal config-validation path.
    ///
    /// # Errors
    ///
    /// Returns an error if more than `N` items are given.
    pub fn new(items: &[T]) -> Result<Self, String> {
        if items.len() > N {
            return Err(format!("holds at most {N} entries, got {}", items.len()));
        }
        let mut list = InlineList { items: [T::default(); N], len: items.len() };
        list.items[..items.len()].copy_from_slice(items);
        Ok(list)
    }

    /// The items, in order.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.items[..self.len]
    }

    /// Number of items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list has no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T: Serialize, const N: usize> Serialize for InlineList<T, N> {
    fn serialize(&self) -> Value {
        Value::Array(self.items[..self.len].iter().map(Serialize::serialize).collect())
    }
}

impl<'de, T: Copy + Default + Deserialize<'de>, const N: usize> Deserialize<'de>
    for InlineList<T, N>
{
    fn deserialize(value: &Value) -> Result<Self, Error> {
        InlineList::new(&Vec::<T>::deserialize(value)?).map_err(Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_as_a_plain_array_and_refuses_overflow_on_both_paths() {
        type Pair = InlineList<u32, 2>;
        let list = Pair::new(&[7]).expect("fits");
        let json = serde::json::to_string(&list);
        assert_eq!(json, "[7]");
        assert_eq!(serde::json::from_str::<Pair>(&json).expect("parses"), list);
        assert!(Pair::new(&[1, 2, 3]).is_err());
        let err = serde::json::from_str::<Pair>("[1,2,3]").expect_err("three do not fit");
        assert!(err.to_string().contains("at most 2"), "{err}");
        assert!(Pair::new(&[]).expect("fits").is_empty());
    }
}
