//! `cati-analysis` — variable recovery and VUC extraction.
//!
//! The stage the paper delegates to IDA Pro (plus its own window
//! cutting): disassemble, split functions, detect frame bases, locate
//! the frame-slot variables that memory-access and dereference
//! instructions operate, label them from debug info when present, and
//! cut the 21-instruction Variable Usage Contexts that the classifier
//! consumes. [`stats`] measures the phenomena motivating the paper:
//! orphan variables, uncertain samples and same-type clustering.
//!
//! # Example
//!
//! ```
//! use cati_analysis::{extract, FeatureView};
//! use cati_synbin::{build_app, AppProfile, CodegenOptions, Compiler, OptLevel};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), cati_analysis::ExtractError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let opts = CodegenOptions { compiler: Compiler::Gcc, opt: OptLevel::O0 };
//! let built = cati_synbin::build_app(&AppProfile::new("demo"), opts, 0.3, &mut rng).remove(0);
//! let extraction = extract(&built.binary, FeatureView::WithSymbols)?;
//! assert!(extraction.vars.len() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod assemble;
pub mod callgraph;
pub mod digest;
pub mod error;
pub mod extract;
pub mod fields;
pub mod recovery;
pub mod stats;

pub use assemble::{ContextAssembler, ContextMode, Slot, TargetVar, WindowPlan};
pub use callgraph::{CallGraph, CallSite};
pub use digest::{digest_binary, digest_bytes, Digest, Fnv128};
pub use error::{
    CatiError, Coverage, Diagnostic, Diagnostics, ExtractError, PipelineStage, MAX_DIAGNOSTICS,
};
pub use extract::{
    detect_frame_base, extract, extract_lenient_mode_observed, extract_mode, extract_mode_observed,
    split_functions, symbol_byte_ranges, Extraction, FeatureView, LenientExtraction, VarKey,
    Variable, Vuc, WindowStats, VUC_LEN, WINDOW,
};
pub use fields::{
    recover_fields_in, recover_struct_fields, score_fields, FieldList, FieldMember, FieldQuery,
    FieldScore,
};
pub use recovery::{recovery_stats, RecoveryStats};
pub use stats::{clustering_stats, orphan_stats, ClusterStats, ClusteringReport, OrphanStats};
