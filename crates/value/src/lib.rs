//! Columnar value layer shared by every tier of the Sigma Workbook
//! reproduction: scalar [`Value`]s, typed [`Column`]s with validity tracking,
//! [`Batch`]es (schema + columns), proleptic-Gregorian calendar math, CSV
//! reading/writing with type inference, typed row ordering, the row-key
//! index, and a bit-exact binary batch codec (the spill-file format of
//! the warehouse's out-of-core operators).
//!
//! The browser runtime, the formula compiler, and the warehouse executor all
//! exchange data through this crate, mirroring how the paper's tiers share a
//! single result-set representation.

pub mod batch;
pub mod calendar;
pub mod codec;
pub mod column;
pub mod csv;
pub mod error;
pub mod hash;
pub mod lru;
pub mod pretty;
pub mod sort;
pub mod types;

pub use batch::{Batch, Field, Schema};
pub use codec::{decode_batch, encode_batch};
pub use column::{Column, ColumnBuilder, Texts};
pub use error::ValueError;
pub use types::{DataType, Value, ValueRef};
