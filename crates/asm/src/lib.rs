//! `cati-asm` — the x86-64 instruction substrate.
//!
//! CATI consumes disassembly listings of stripped x86-64 binaries.
//! This crate provides everything between raw bytes and the token
//! stream the classifier embeds:
//!
//! - [`reg`], [`mnemonic`], [`insn`] — the instruction model (16 GPRs
//!   at four widths, SSE registers, ~125 mnemonics with behavioural
//!   metadata);
//! - [`fmt`] / [`parse`] — objdump-flavoured AT&T formatting and
//!   parsing, including width-suffix elision and `<symbol>` targets;
//! - [`codec`] — a reversible byte encoding plus linear-sweep
//!   disassembly (see DESIGN.md for the substitution note);
//! - [`binary`] — the executable container with symbol table, debug
//!   section and `strip`;
//! - [`mod@generalize`] — paper Table II operand generalization into the
//!   three-token-per-instruction form.
//!
//! # Example
//!
//! ```
//! use cati_asm::parse::parse_insn;
//! use cati_asm::generalize::generalize;
//! use cati_asm::fmt::NoSymbols;
//!
//! # fn main() -> Result<(), cati_asm::parse::ParseError> {
//! let insn = parse_insn("lea -0x300(%rbp,%r9,4),%rax")?.insn;
//! let gen = generalize(&insn, &NoSymbols);
//! assert_eq!(gen.to_string(), "lea -0xIMM(%rbp,%r9,4) %rax");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod codec;
pub mod fmt;
pub mod generalize;
pub mod insn;
pub mod mnemonic;
pub mod parse;
pub mod reg;

pub use binary::{Binary, Symbol};
pub use codec::{DecodeError, Located};
pub use fmt::{format_insn, NoSymbols, SymbolResolver};
pub use generalize::{generalize, GenInsn, ADDR, BLANK, FUNC, TOKENS_PER_INSN};
pub use insn::{Insn, MemAccess, MemRef, Operand};
pub use mnemonic::{Kind, Mnemonic};
pub use reg::{regs, Gpr, Width, Xmm};
