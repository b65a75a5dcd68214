//! # cypress-deflate — from-scratch DEFLATE / gzip substrate
//!
//! The paper's "Gzip" baseline (also the compressor OTF uses) rebuilt from
//! the RFCs: LZ77 with hash chains and lazy matching ([`lz77`]),
//! length-limited canonical Huffman codes via package-merge ([`huffman`]),
//! DEFLATE encoding with stored/fixed/dynamic block selection
//! ([`mod@deflate`]/[`mod@inflate`], RFC 1951), and the gzip container with
//! CRC-32 integrity (RFC 1952, [`gzip`], [`mod@crc32`]).
//!
//! ```
//! use cypress_deflate::{gzip_compress, gzip_decompress, Level};
//!
//! let data = b"traces traces traces traces traces".repeat(100);
//! let z = gzip_compress(&data, Level::Default);
//! assert!(z.len() < data.len() / 4);
//! assert_eq!(gzip_decompress(&z).unwrap(), data);
//! ```

pub mod bitio;
pub mod crc32;
#[allow(clippy::module_inception)]
pub mod deflate;
pub mod gzip;
pub mod huffman;
pub mod inflate;
pub mod lz77;
pub mod tables;

pub use crc32::{crc32, crc32_combine, Crc32};
pub use deflate::{deflate, Level};
pub use gzip::{gzip_compress, gzip_decompress, gzip_size};
pub use inflate::{inflate, inflate_exact};
