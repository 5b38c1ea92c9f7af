//! Column types, runtime values, and schemas.

use std::collections::HashMap;
use std::fmt;

/// Logical column type.
///
/// Integers are stored as their own value (order-preserving); they must be
/// non-negative (SSB, like most OLAP key/measure domains, is non-negative;
/// signed columns would use [`qppt_mem::encode_i64`], which the storage
/// layer asserts it never needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// Non-negative 63-bit integer.
    Int,
    /// Dictionary-encoded string.
    Str,
}

/// A runtime value, used at API boundaries (building tables, writing
/// predicates, decoding results). Internally everything is a `u64` code.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Value {
    Int(i64),
    Str(String),
}

impl Value {
    /// Convenience constructor from `&str`.
    pub fn str(s: &str) -> Self {
        Value::Str(s.to_string())
    }

    /// The type this value inhabits.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Value::Int(_) => ColumnType::Int,
            Value::Str(_) => ColumnType::Str,
        }
    }

    /// Integer accessor (panics on strings; used in tests and decoding).
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            Value::Str(s) => panic!("expected Int, found Str({s:?})"),
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            Value::Int(v) => panic!("expected Str, found Int({v})"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: ColumnType,
}

impl ColumnDef {
    /// Shorthand constructor.
    pub fn new(name: &str, ty: ColumnType) -> Self {
        Self {
            name: name.to_string(),
            ty,
        }
    }
}

/// An ordered set of columns with by-name lookup.
#[derive(Debug, Clone)]
pub struct Schema {
    columns: Vec<ColumnDef>,
    by_name: HashMap<String, usize>,
}

impl Schema {
    /// Builds a schema; duplicate column names are an error.
    pub fn new(columns: Vec<ColumnDef>) -> Result<Self, StorageError> {
        let mut by_name = HashMap::with_capacity(columns.len());
        for (i, c) in columns.iter().enumerate() {
            if by_name.insert(c.name.clone(), i).is_some() {
                return Err(StorageError::DuplicateColumn(c.name.clone()));
            }
        }
        Ok(Self { columns, by_name })
    }

    /// Shorthand: `[("name", ColumnType::Int), ...]`.
    pub fn of(cols: &[(&str, ColumnType)]) -> Self {
        Self::new(cols.iter().map(|(n, t)| ColumnDef::new(n, *t)).collect())
            .expect("static schemas have unique names")
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Column definitions in order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Index of a column by name.
    pub fn col(&self, name: &str) -> Result<usize, StorageError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| StorageError::UnknownColumn(name.to_string()))
    }

    /// Definition of a column by index.
    pub fn column(&self, idx: usize) -> &ColumnDef {
        &self.columns[idx]
    }
}

/// Errors raised by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    DuplicateColumn(String),
    UnknownColumn(String),
    UnknownTable(String),
    UnknownIndex {
        table: String,
        key: String,
    },
    TypeMismatch {
        column: String,
        expected: ColumnType,
        got: ColumnType,
    },
    ArityMismatch {
        expected: usize,
        got: usize,
    },
    NegativeInt {
        column: String,
        value: i64,
    },
    ValueNotInDictionary {
        column: String,
        value: String,
    },
    /// The packed key of an index over `columns` would exceed 64 bits.
    KeyTooWide {
        columns: Vec<String>,
        bits: u32,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::DuplicateColumn(c) => write!(f, "duplicate column {c:?}"),
            StorageError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            StorageError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            StorageError::UnknownIndex { table, key } => {
                write!(f, "no base index on {table}.{key}")
            }
            StorageError::TypeMismatch {
                column,
                expected,
                got,
            } => {
                write!(f, "column {column:?} expects {expected:?}, got {got:?}")
            }
            StorageError::ArityMismatch { expected, got } => {
                write!(f, "row has {got} values, schema has {expected} columns")
            }
            StorageError::NegativeInt { column, value } => {
                write!(
                    f,
                    "column {column:?} got negative value {value} (unsupported)"
                )
            }
            StorageError::ValueNotInDictionary { column, value } => {
                write!(
                    f,
                    "value {value:?} is not in the dictionary of column {column:?}"
                )
            }
            StorageError::KeyTooWide { columns, bits } => {
                write!(
                    f,
                    "index key over {} needs {bits} bits (max 64)",
                    columns.join("+")
                )
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_lookup() {
        let s = Schema::of(&[("a", ColumnType::Int), ("b", ColumnType::Str)]);
        assert_eq!(s.col("a").unwrap(), 0);
        assert_eq!(s.col("b").unwrap(), 1);
        assert!(matches!(s.col("c"), Err(StorageError::UnknownColumn(_))));
        assert_eq!(s.width(), 2);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = Schema::new(vec![
            ColumnDef::new("x", ColumnType::Int),
            ColumnDef::new("x", ColumnType::Int),
        ]);
        assert!(matches!(r, Err(StorageError::DuplicateColumn(_))));
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(5).as_int(), 5);
        assert_eq!(Value::str("hi").as_str(), "hi");
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(format!("{}", Value::Int(7)), "7");
        assert_eq!(format!("{}", Value::str("s")), "s");
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn wrong_accessor_panics() {
        Value::str("s").as_int();
    }
}
