//! Variable location and VUC extraction (paper §III–§IV).
//!
//! A *target instruction* is a memory-access or dereference
//! instruction whose memory operand is frame-relative — it operates
//! exactly one variable. For every target instruction we cut a
//! **Variable Usage Context**: the instruction plus `WINDOW`
//! instructions before and after (within the owning function,
//! BLANK-padded at the edges), generalized per Table II. VUCs whose
//! targets resolve to the same stack slot belong to the same variable
//! — the grouping the voting stage uses.

use crate::assemble::{ContextAssembler, ContextMode, Slot, TargetVar};
use cati_asm::binary::Binary;
use cati_asm::codec::Located;
use cati_asm::fmt::NoSymbols;
use cati_asm::generalize::{generalize, GenInsn};
use cati_asm::insn::MemAccess;
use cati_asm::reg::Gpr;
use cati_dwarf::{Debin17, DebugInfo, TypeClass, VarLocation};
use cati_obs::{Event, Observer};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Context window radius: 10 instructions each side (paper §II-A).
pub const WINDOW: usize = 10;
/// Total VUC length: forward + target + backward.
pub const VUC_LEN: usize = 2 * WINDOW + 1;

/// Identifies one variable inside one binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VarKey {
    /// Index of the owning function.
    pub func: u32,
    /// Canonical slot base offset from the frame base.
    pub offset: i32,
}

/// One recovered variable with its VUC group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Variable {
    /// Identity.
    pub key: VarKey,
    /// Source name, when labeled from debug info.
    pub name: Option<String>,
    /// Ground-truth class (19-way), when labeled.
    pub class: Option<TypeClass>,
    /// Ground-truth label for the DEBIN comparison task, when labeled.
    pub debin: Option<Debin17>,
    /// Indices into [`Extraction::vucs`] of this variable's VUCs.
    pub vucs: Vec<u32>,
}

/// One Variable Usage Context.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vuc {
    /// Exactly [`VUC_LEN`] generalized instructions; index [`WINDOW`]
    /// is the target instruction.
    pub insns: Vec<GenInsn>,
    /// Index of the owning variable in [`Extraction::vars`].
    pub var: u32,
    /// Ground-truth class of each *context* position's operated
    /// variable (`None` when the position is not a target instruction
    /// of a labeled variable) — drives the clustering statistics of
    /// paper Table V.
    pub context_classes: Vec<Option<TypeClass>>,
}

impl Vuc {
    /// Ground-truth class of the target variable, when labeled.
    pub fn class(&self, vars: &[Variable]) -> Option<TypeClass> {
        vars[self.var as usize].class
    }
}

/// The result of running extraction over one binary.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Extraction {
    /// Name of the binary.
    pub binary_name: String,
    /// Recovered variables.
    pub vars: Vec<Variable>,
    /// All extracted VUCs.
    pub vucs: Vec<Vuc>,
}

impl Extraction {
    /// Only the variables carrying a ground-truth class label.
    pub fn labeled_vars(&self) -> impl Iterator<Item = (usize, &Variable)> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.class.is_some())
    }
}

/// How VUC features should be generalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureView {
    /// Use the binary's symbol table (training view: call targets
    /// resolve to `FUNC`).
    WithSymbols,
    /// Pretend the binary is stripped (test view: call targets
    /// generalize to `BLANK`).
    Stripped,
}

pub use crate::error::{CatiError, Coverage, Diagnostic, Diagnostics, ExtractError, PipelineStage};

/// Detects the frame base of a function from its prologue: a
/// `push %rbp; mov %rsp,%rbp` pair means `%rbp`-based frames,
/// otherwise accesses are `%rsp`-relative.
pub fn detect_frame_base(insns: &[Located]) -> Gpr {
    use cati_asm::mnemonic::Mnemonic;
    use cati_asm::reg::regs;
    for w in insns.windows(2).take(4) {
        let a = &w[0].insn;
        let b = &w[1].insn;
        if a.mnemonic == Mnemonic::PushQ
            && a.operands
                .first()
                .and_then(|o| o.as_gpr())
                .map(|r| r.is_bp())
                == Some(true)
            && b.mnemonic == Mnemonic::MovQ
            && b.operands
                .first()
                .and_then(|o| o.as_gpr())
                .map(|r| r.is_sp())
                == Some(true)
            && b.operands
                .get(1)
                .and_then(|o| o.as_gpr())
                .map(|r| r.is_bp())
                == Some(true)
        {
            return regs::rbp();
        }
    }
    regs::rsp()
}

/// Splits a linear-sweep listing into functions.
///
/// With a symbol table the split is exact; otherwise every `ret` ends
/// a function — correct for this substrate, and the approach linear
/// disassemblers fall back to on stripped input.
pub fn split_functions(insns: &[Located], binary: &Binary) -> Vec<(usize, usize)> {
    if !binary.symbols.is_empty() {
        let mut ranges = Vec::new();
        for sym in &binary.symbols {
            if sym.addr < binary.text_base {
                continue; // PLT pseudo-symbols live below the text base
            }
            let start = insns.partition_point(|l| l.addr < sym.addr);
            let end = insns.partition_point(|l| l.addr < sym.addr + sym.len);
            if start < end {
                ranges.push((start, end));
            }
        }
        ranges.sort_unstable();
        // Symbol tables can repeat an address (duplicates, aliases)
        // or declare lengths that spill into the next function, which
        // would double-count every VUC cut from the shared
        // instructions. One function per start address (the sort puts
        // the shortest candidate first), and each range is clipped to
        // begin after the previous one ends.
        ranges.dedup_by_key(|r| r.0);
        let mut out: Vec<(usize, usize)> = Vec::with_capacity(ranges.len());
        for (start, end) in ranges {
            let start = start.max(out.last().map_or(0, |&(_, prev_end)| prev_end));
            if start < end {
                out.push((start, end));
            }
        }
        return out;
    }
    let mut out = Vec::new();
    let mut start = 0usize;
    for (i, l) in insns.iter().enumerate() {
        if l.insn.mnemonic == cati_asm::mnemonic::Mnemonic::Ret {
            out.push((start, i + 1));
            start = i + 1;
        }
    }
    if start < insns.len() {
        out.push((start, insns.len()));
    }
    out
}

/// The frame-slot offset a target instruction touches, if its memory
/// operand is relative to `base` (directly or via a scaled index).
fn frame_offset_of(located: &Located, base: Gpr) -> Option<(i32, MemAccess)> {
    let (mem, access) = located.insn.mem_operand()?;
    let mem_base = mem.base?;
    (mem_base.num() == base.num()).then_some((mem.disp, access))
}

/// Extracts variables and VUCs from `binary`.
///
/// When the binary has a debug section, variables are labeled with
/// their ground-truth classes (typedefs resolved recursively); when it
/// does not, variables are recovered from the access pattern alone:
/// every maximal cluster of accessed offsets becomes one variable —
/// the posture of the inference pipeline on unseen stripped binaries.
///
/// # Errors
///
/// Fails if the text section does not decode or the debug section is
/// corrupt.
pub fn extract(binary: &Binary, view: FeatureView) -> Result<Extraction, ExtractError> {
    extract_mode(binary, view, ContextMode::FunctionLocal)
}

/// [`extract`] with an explicit [`ContextMode`]. `FunctionLocal` is
/// bit-identical to [`extract`]; `Interprocedural` splices caller and
/// callee context into the window padding.
///
/// # Errors
///
/// Same failure modes as [`extract`].
pub fn extract_mode(
    binary: &Binary,
    view: FeatureView,
    mode: ContextMode,
) -> Result<Extraction, ExtractError> {
    extract_mode_observed(binary, view, mode, &cati_obs::NOOP)
}

/// How many window slots the assembler padded vs spliced — the
/// boundary-context ledger behind the `extract.windows_padded` /
/// `extract.windows_spliced` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Slots emitted as BLANK padding.
    pub padded: u64,
    /// Slots filled from another function by an interprocedural
    /// splice rule.
    pub spliced: u64,
}

/// [`extract_mode`] with telemetry: emits counters for functions
/// scanned, variables recovered (labeled and total), VUCs cut and
/// window slots padded or spliced. The returned extraction is
/// identical to the unobserved path for any observer.
///
/// # Errors
///
/// Same failure modes as [`extract`].
pub fn extract_mode_observed(
    binary: &Binary,
    view: FeatureView,
    mode: ContextMode,
    obs: &dyn Observer,
) -> Result<Extraction, ExtractError> {
    let insns = binary.disassemble()?;
    let debug = match &binary.debug {
        Some(bytes) => Some(DebugInfo::parse(bytes)?),
        None => None,
    };
    let functions = split_functions(&insns, binary);
    let bodies: Vec<Option<&[Located]>> = functions
        .iter()
        .map(|&(start, end)| Some(&insns[start..end]))
        .collect();
    let (kept, vucs, windows) = extract_core(binary, &bodies, debug.as_ref(), view, mode);
    emit_extract_counters(obs, functions.len(), &kept, vucs.len(), windows);
    Ok(Extraction {
        binary_name: binary.name.clone(),
        vars: kept,
        vucs,
    })
}

/// The `extract.*` counters shared by the strict and lenient paths.
fn emit_extract_counters(
    obs: &dyn Observer,
    functions: usize,
    vars: &[Variable],
    vucs: usize,
    windows: WindowStats,
) {
    let counters = [
        ("extract.functions", functions as u64),
        ("extract.vars", vars.len() as u64),
        (
            "extract.vars_labeled",
            vars.iter().filter(|v| v.class.is_some()).count() as u64,
        ),
        ("extract.vucs", vucs as u64),
        ("extract.windows_padded", windows.padded),
        ("extract.windows_spliced", windows.spliced),
    ];
    for (name, delta) in counters {
        obs.event(&Event::Counter { name, delta });
    }
}

/// The shared extraction loop: variable resolution and VUC cutting
/// over already-split function bodies.
///
/// `bodies[i]` is function `i`'s instructions, or `None` when the
/// lenient path skipped the function — indices stay stable either way,
/// so [`VarKey::func`] means the same thing in strict and degraded
/// runs of the same binary.
fn extract_core(
    binary: &Binary,
    bodies: &[Option<&[Located]>],
    debug: Option<&DebugInfo>,
    view: FeatureView,
    mode: ContextMode,
) -> (Vec<Variable>, Vec<Vuc>, WindowStats) {
    let mut vars: Vec<Variable> = Vec::new();
    let mut var_index: HashMap<VarKey, u32> = HashMap::new();
    let mut vucs: Vec<Vuc> = Vec::new();
    let mut windows = WindowStats::default();
    let assembler = ContextAssembler::new(mode, bodies);

    // Per-function: find targets, resolve to variables, cut windows.
    for (func_idx, slot) in bodies.iter().enumerate() {
        let Some(body) = *slot else { continue };
        let base = detect_frame_base(body);
        let func_entry = body.first().map(|l| l.addr).unwrap_or(0);
        let debug_func = debug
            .as_ref()
            .and_then(|d| d.functions.iter().find(|f| f.entry == func_entry));

        // First pass: per-instruction variable resolution.
        let mut insn_var: Vec<Option<u32>> = vec![None; body.len()];
        for (i, located) in body.iter().enumerate() {
            let Some((disp, _access)) = frame_offset_of(located, base) else {
                continue;
            };
            // Resolve to a canonical variable.
            let resolved = match (&debug, debug_func) {
                (Some(di), Some(df)) => di.var_at_frame_offset(df, disp).map(|vr| {
                    let VarLocation::Frame(slot) = vr.location else {
                        unreachable!()
                    };
                    (slot, Some(vr))
                }),
                _ => Some((disp, None)),
            };
            let Some((slot, var_record)) = resolved else {
                continue; // access outside any recorded variable
            };
            let key = VarKey {
                func: func_idx as u32,
                offset: slot,
            };
            let vid = *var_index.entry(key).or_insert_with(|| {
                vars.push(Variable {
                    key,
                    name: var_record.map(|r| r.name.clone()),
                    class: var_record.and_then(|r| TypeClass::of(&r.ty)),
                    debin: var_record.and_then(|r| Debin17::of(&r.ty)),
                    vucs: Vec::new(),
                });
                (vars.len() - 1) as u32
            });
            // Unlabeled (or union/void-typed) variables are recovered
            // but carry no class; they still get VUCs in stripped mode.
            insn_var[i] = Some(vid);
        }

        // Second pass: cut VUC windows.
        for (i, _located) in body.iter().enumerate() {
            let Some(vid) = insn_var[i] else { continue };
            // In labeled mode, skip variables the paper excludes
            // (no class) — they are still counted as recovered.
            if debug.is_some() && vars[vid as usize].class.is_none() {
                continue;
            }
            let target = TargetVar {
                vid,
                offset: vars[vid as usize].key.offset,
                frame_base: base,
                insn_var: &insn_var,
            };
            let plan = assembler.plan(func_idx as u32, i, &target);
            let mut window = Vec::with_capacity(VUC_LEN);
            let mut context_classes = Vec::with_capacity(VUC_LEN);
            for slot in &plan.slots {
                match *slot {
                    Slot::Blank => {
                        windows.padded += 1;
                        window.push(GenInsn::blank());
                        context_classes.push(None);
                    }
                    Slot::Local(j) => {
                        let gen = match view {
                            FeatureView::WithSymbols => generalize(&body[j].insn, binary),
                            FeatureView::Stripped => generalize(&body[j].insn, &NoSymbols),
                        };
                        window.push(gen);
                        context_classes.push(insn_var[j].and_then(|v| vars[v as usize].class));
                    }
                    spliced @ Slot::Spliced { .. } => {
                        windows.spliced += 1;
                        // A spliced instruction belongs to another
                        // function's frame; its operated variable (if
                        // any) is not resolvable here, so it carries
                        // no context class — exactly like padding.
                        let insn = assembler
                            .instruction(func_idx as u32, spliced)
                            .map(|l| &l.insn);
                        let gen = match (insn, view) {
                            (None, _) => GenInsn::blank(),
                            (Some(insn), FeatureView::WithSymbols) => generalize(insn, binary),
                            (Some(insn), FeatureView::Stripped) => generalize(insn, &NoSymbols),
                        };
                        window.push(gen);
                        context_classes.push(None);
                    }
                }
            }
            let vuc_id = vucs.len() as u32;
            vucs.push(Vuc {
                insns: window,
                var: vid,
                context_classes,
            });
            vars[vid as usize].vucs.push(vuc_id);
        }
    }

    // Drop variables that ended up with no VUCs (e.g. labeled-mode
    // variables of excluded classes), remapping indices.
    let mut remap = vec![u32::MAX; vars.len()];
    let mut kept = Vec::with_capacity(vars.len());
    for (old, var) in vars.into_iter().enumerate() {
        if var.vucs.is_empty() {
            continue;
        }
        remap[old] = kept.len() as u32;
        kept.push(var);
    }
    for vuc in &mut vucs {
        vuc.var = remap[vuc.var as usize];
        debug_assert_ne!(vuc.var, u32::MAX);
    }

    (kept, vucs, windows)
}

/// The result of a lenient (fault-isolated) extraction run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LenientExtraction {
    /// The (possibly partial) extraction.
    pub extraction: Extraction,
    /// How much of the binary was actually processed.
    pub coverage: Coverage,
    /// Non-fatal findings, in emission order.
    pub diagnostics: Diagnostics,
}

/// The byte ranges of the text section that belong to each function
/// symbol, mirroring the semantics of [`split_functions`]: PLT
/// pseudo-symbols below the text base are ignored, one function per
/// start address, later ranges clipped to begin after earlier ones
/// end, everything clamped to the section.
pub fn symbol_byte_ranges(binary: &Binary) -> Vec<(usize, usize)> {
    let text_len = binary.text.len();
    let mut ranges = Vec::new();
    for sym in &binary.symbols {
        if sym.addr < binary.text_base {
            continue;
        }
        let start = usize::try_from(sym.addr - binary.text_base)
            .unwrap_or(text_len)
            .min(text_len);
        let end = usize::try_from((sym.addr - binary.text_base).saturating_add(sym.len))
            .unwrap_or(text_len)
            .min(text_len);
        if start < end {
            ranges.push((start, end));
        }
    }
    ranges.sort_unstable();
    ranges.dedup_by_key(|r| r.0);
    let mut out: Vec<(usize, usize)> = Vec::with_capacity(ranges.len());
    for (start, end) in ranges {
        let start = start.max(out.last().map_or(0, |&(_, prev_end)| prev_end));
        if start < end {
            out.push((start, end));
        }
    }
    out
}

/// Fault-isolated extraction: never fails, reports what it skipped.
///
/// The strict path ([`extract`]) refuses the whole binary on the first
/// bad byte. This path degrades instead:
///
/// - a corrupt debug section becomes a diagnostic and the binary is
///   processed unlabeled, the way a stripped binary is;
/// - when the full text decodes, the result is **bit-identical** to
///   the strict path's;
/// - when it does not, each symbol's byte range is decoded in
///   isolation and only the functions whose bytes are broken are
///   dropped (their indices are kept, so surviving [`VarKey`]s match
///   a strict run's);
/// - without symbols, a resynchronizing sweep keeps every decodable
///   region and records the gaps.
///
/// Fault isolation composes with splicing: a function whose body was
/// skipped contributes no call-graph edges, so any splice that would
/// have drawn from it degrades back to BLANK padding instead of
/// poisoning the surviving windows.
///
/// Emits `robust.skipped_fns`, `robust.bytes_skipped` and
/// `robust.diagnostics` counters on top of the usual `extract.*` set.
pub fn extract_lenient_mode_observed(
    binary: &Binary,
    view: FeatureView,
    mode: ContextMode,
    obs: &dyn Observer,
) -> LenientExtraction {
    let mut diagnostics = Diagnostics::new();
    let mut coverage = Coverage {
        bytes_total: binary.text.len() as u64,
        debug_present: binary.debug.is_some(),
        ..Coverage::default()
    };

    // Debug info: corrupt sections downgrade to unlabeled recovery.
    let debug = match &binary.debug {
        Some(bytes) => match DebugInfo::parse(bytes) {
            Ok(di) => {
                coverage.debug_ok = true;
                Some(di)
            }
            Err(e) => {
                diagnostics.report(
                    PipelineStage::DebugParse,
                    None,
                    None,
                    format!("debug section rejected: {e}; continuing unlabeled"),
                );
                None
            }
        },
        None => None,
    };

    // Text: try the strict whole-section sweep first so the clean-path
    // result is bit-identical to `extract`; fall back to per-function
    // isolation (with symbols) or a resynchronizing sweep (without).
    let full = binary.disassemble();
    let mut owned_bodies: Vec<Option<Vec<Located>>> = Vec::new();
    let insns; // keeps the strict sweep alive for borrowing
    let bodies: Vec<Option<&[Located]>> = match full {
        Ok(decoded) => {
            insns = decoded;
            let functions = split_functions(&insns, binary);
            functions
                .iter()
                .map(|&(start, end)| Some(&insns[start..end]))
                .collect()
        }
        Err(first_err) if !binary.symbols.is_empty() => {
            let ranges = symbol_byte_ranges(binary);
            let mut covered = vec![false; binary.text.len()];
            for (func_idx, &(start, end)) in ranges.iter().enumerate() {
                let base = binary.text_base + start as u64;
                match cati_asm::codec::linear_sweep(&binary.text[start..end], base) {
                    Ok(body) => {
                        covered[start..end].iter_mut().for_each(|b| *b = true);
                        owned_bodies.push(Some(body));
                    }
                    Err(e) => {
                        coverage.functions_skipped += 1;
                        diagnostics.report(
                            PipelineStage::Decode,
                            Some(func_idx as u32),
                            Some(base),
                            format!("function body skipped: {e}"),
                        );
                        owned_bodies.push(None);
                    }
                }
            }
            if ranges.is_empty() {
                // Symbols exist but none overlap the text: nothing to
                // isolate, so surface the original failure.
                diagnostics.report(
                    PipelineStage::Decode,
                    None,
                    Some(binary.text_base),
                    format!("text section rejected: {first_err}"),
                );
            }
            coverage.bytes_skipped = covered.iter().filter(|&&b| !b).count() as u64;
            owned_bodies.iter().map(|b| b.as_deref()).collect()
        }
        Err(_) => {
            // No symbols to scope the damage: resynchronize and split
            // the surviving instructions at `ret` boundaries.
            let sweep = cati_asm::codec::linear_sweep_lenient(&binary.text, binary.text_base);
            for gap in &sweep.gaps {
                diagnostics.report(
                    PipelineStage::Decode,
                    None,
                    Some(binary.text_base + gap.offset as u64),
                    format!("skipped {} undecodable byte(s): {}", gap.len, gap.error),
                );
            }
            coverage.bytes_skipped = sweep.skipped_bytes() as u64;
            insns = sweep.insns;
            split_functions(&insns, binary)
                .iter()
                .map(|&(start, end)| Some(&insns[start..end]))
                .collect()
        }
    };

    coverage.functions_total = bodies.len() as u64;
    let (vars, vucs, windows) = extract_core(binary, &bodies, debug.as_ref(), view, mode);
    coverage.vars = vars.len() as u64;
    coverage.vucs = vucs.len() as u64;
    emit_extract_counters(obs, bodies.len(), &vars, vucs.len(), windows);
    for (name, delta) in [
        ("robust.skipped_fns", coverage.functions_skipped),
        ("robust.bytes_skipped", coverage.bytes_skipped),
        ("robust.diagnostics", diagnostics.total()),
    ] {
        obs.event(&Event::Counter { name, delta });
    }

    LenientExtraction {
        extraction: Extraction {
            binary_name: binary.name.clone(),
            vars,
            vucs,
        },
        coverage,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cati_synbin::{build_app, AppProfile, CodegenOptions, Compiler, OptLevel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_binary(opt: OptLevel, seed: u64) -> Binary {
        let profile = AppProfile::new("unit");
        let mut rng = StdRng::seed_from_u64(seed);
        let opts = CodegenOptions {
            compiler: Compiler::Gcc,
            opt,
        };
        build_app(&profile, opts, 0.5, &mut rng).remove(0).binary
    }

    fn extract_lenient(bin: &Binary, view: FeatureView) -> LenientExtraction {
        extract_lenient_mode_observed(bin, view, ContextMode::FunctionLocal, &cati_obs::NOOP)
    }

    #[test]
    fn labeled_extraction_finds_variables() {
        let bin = sample_binary(OptLevel::O0, 1);
        let ex = extract(&bin, FeatureView::WithSymbols).unwrap();
        assert!(ex.vars.len() > 5, "found only {} vars", ex.vars.len());
        assert!(ex.vucs.len() >= ex.vars.len());
        // Every labeled variable's VUCs point back at it.
        for (i, var) in ex.vars.iter().enumerate() {
            assert!(!var.vucs.is_empty());
            for &v in &var.vucs {
                assert_eq!(ex.vucs[v as usize].var, i as u32);
            }
        }
    }

    #[test]
    fn vucs_are_exactly_21_instructions() {
        let bin = sample_binary(OptLevel::O0, 2);
        let ex = extract(&bin, FeatureView::WithSymbols).unwrap();
        for vuc in &ex.vucs {
            assert_eq!(vuc.insns.len(), VUC_LEN);
            assert_eq!(vuc.context_classes.len(), VUC_LEN);
        }
    }

    #[test]
    fn center_instruction_is_never_blank() {
        let bin = sample_binary(OptLevel::O2, 3);
        let ex = extract(&bin, FeatureView::WithSymbols).unwrap();
        for vuc in &ex.vucs {
            assert_ne!(vuc.insns[WINDOW].mnemonic(), "BLANK");
        }
    }

    #[test]
    fn stripped_view_has_no_func_tokens() {
        let bin = sample_binary(OptLevel::O0, 4);
        let labeled = extract(&bin, FeatureView::WithSymbols).unwrap();
        let stripped = extract(&bin, FeatureView::Stripped).unwrap();
        let has_func = |ex: &Extraction| {
            ex.vucs
                .iter()
                .flat_map(|v| v.insns.iter())
                .any(|g| g.iter().any(|t| t == "FUNC"))
        };
        assert!(
            has_func(&labeled),
            "symbolized view should contain FUNC tokens"
        );
        assert!(!has_func(&stripped));
    }

    #[test]
    fn stripped_binary_still_yields_variables() {
        let bin = sample_binary(OptLevel::O0, 5).strip();
        let ex = extract(&bin, FeatureView::Stripped).unwrap();
        assert!(!ex.vars.is_empty());
        assert!(ex
            .vars
            .iter()
            .all(|v| v.class.is_none() && v.name.is_none()));
    }

    #[test]
    fn oracle_and_stripped_agree_on_rbp_functions() {
        // At -O0 every access is rbp-relative with the slot base equal
        // to the declared frame offset for scalar variables, so the
        // stripped recovery should find at least as many variables.
        let bin = sample_binary(OptLevel::O0, 6);
        let labeled = extract(&bin, FeatureView::WithSymbols).unwrap();
        let stripped = extract(&bin.strip(), FeatureView::Stripped).unwrap();
        assert!(
            stripped.vars.len() >= labeled.vars.len(),
            "stripped {} < labeled {}",
            stripped.vars.len(),
            labeled.vars.len()
        );
    }

    #[test]
    fn struct_member_accesses_group_to_one_variable() {
        // Find a variable labeled `struct` with several VUCs whose
        // target offsets differ — member stores resolved to one slot.
        let mut found = false;
        for seed in 0..30 {
            let bin = sample_binary(OptLevel::O0, seed);
            let ex = extract(&bin, FeatureView::WithSymbols).unwrap();
            for var in &ex.vars {
                if var.class == Some(TypeClass::Struct) && var.vucs.len() >= 2 {
                    found = true;
                }
            }
            if found {
                break;
            }
        }
        assert!(
            found,
            "no struct variable with grouped member accesses in 30 binaries"
        );
    }

    #[test]
    fn typedefs_resolve_in_labels() {
        // Typedef'd ints must label as Int, not as their alias.
        let mut any_labeled = 0;
        for seed in 0..5 {
            let bin = sample_binary(OptLevel::O0, seed + 100);
            let ex = extract(&bin, FeatureView::WithSymbols).unwrap();
            any_labeled += ex.labeled_vars().count();
        }
        assert!(any_labeled > 20);
    }

    #[test]
    fn overlapping_and_duplicate_symbols_split_without_double_counting() {
        let mut bin = sample_binary(OptLevel::O0, 21);
        let insns = bin.disassemble().unwrap();
        let clean = split_functions(&insns, &bin);
        assert!(clean.len() >= 2, "need at least two functions");
        // Corrupt the symbol table the ways real ones are corrupt:
        // an exact duplicate, an alias at the same address with a
        // different length, and a symbol whose length spills into the
        // next function.
        let dup = bin.symbols[0].clone();
        bin.symbols.push(dup);
        let mut alias = bin.symbols[1].clone();
        alias.name = "alias".to_string();
        alias.len += 4;
        bin.symbols.push(alias);
        bin.symbols[0].len += bin.symbols[1].len / 2;
        let funcs = split_functions(&insns, &bin);
        // Every instruction belongs to at most one range, ranges are
        // sorted, non-empty, and in bounds.
        for w in funcs.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping ranges {w:?}");
        }
        for &(start, end) in &funcs {
            assert!(start < end, "empty range ({start}, {end})");
            assert!(end <= insns.len());
        }
        assert_eq!(
            funcs.len(),
            clean.len(),
            "duplicates/aliases must not add functions"
        );
    }

    #[test]
    fn lenient_matches_strict_on_clean_binary() {
        for view in [FeatureView::WithSymbols, FeatureView::Stripped] {
            let bin = sample_binary(OptLevel::O0, 8);
            let strict = extract(&bin, view).unwrap();
            let lenient = extract_lenient(&bin, view);
            assert_eq!(strict, lenient.extraction);
            assert!(lenient.coverage.is_complete());
            assert!(lenient.diagnostics.is_empty());
            assert!(lenient.coverage.debug_present && lenient.coverage.debug_ok);
            assert_eq!(lenient.coverage.vars, strict.vars.len() as u64);
        }
    }

    #[test]
    fn lenient_downgrades_corrupt_debug_to_unlabeled() {
        let mut bin = sample_binary(OptLevel::O0, 9);
        if let Some(debug) = bin.debug.as_mut() {
            let mid = debug.len() / 2;
            debug.truncate(mid);
        }
        assert!(extract(&bin, FeatureView::WithSymbols).is_err());
        let lenient = extract_lenient(&bin, FeatureView::WithSymbols);
        assert!(lenient.coverage.debug_present);
        assert!(!lenient.coverage.debug_ok);
        assert!(!lenient.coverage.is_complete());
        assert_eq!(lenient.diagnostics.entries.len(), 1);
        assert_eq!(
            lenient.diagnostics.entries[0].stage,
            PipelineStage::DebugParse
        );
        // Recovery proceeds unlabeled, like a stripped binary.
        assert!(!lenient.extraction.vars.is_empty());
        assert!(lenient.extraction.vars.iter().all(|v| v.class.is_none()));
    }

    #[test]
    fn lenient_isolates_a_broken_function() {
        let bin = sample_binary(OptLevel::O0, 10);
        let ranges = symbol_byte_ranges(&bin);
        assert!(ranges.len() >= 3, "need several functions");
        let clean = extract_lenient(&bin, FeatureView::Stripped);

        // Clobber the middle function's first opcode byte.
        let victim = ranges.len() / 2;
        let mut broken = bin.clone();
        broken.text[ranges[victim].0] = 0xFF;
        assert!(extract(&broken, FeatureView::Stripped).is_err());

        let lenient = extract_lenient(&broken, FeatureView::Stripped);
        assert_eq!(lenient.coverage.functions_skipped, 1);
        assert!(lenient.coverage.bytes_skipped > 0);
        assert!(lenient
            .diagnostics
            .entries
            .iter()
            .any(|d| d.stage == PipelineStage::Decode && d.func == Some(victim as u32)));
        // Only the victim's variables disappear; survivors keep their
        // function indices, so their keys match the clean run's.
        assert!(lenient
            .extraction
            .vars
            .iter()
            .all(|v| v.key.func != victim as u32));
        let surviving: Vec<_> = clean
            .extraction
            .vars
            .iter()
            .filter(|v| v.key.func != victim as u32)
            .map(|v| v.key)
            .collect();
        let lenient_keys: Vec<_> = lenient.extraction.vars.iter().map(|v| v.key).collect();
        assert_eq!(surviving, lenient_keys);
    }

    #[test]
    fn lenient_without_symbols_resynchronizes_around_gaps() {
        let bin = sample_binary(OptLevel::O0, 11).strip();
        let insns = bin.disassemble().unwrap();
        // Clobber an opcode byte at a mid-text instruction boundary —
        // operand payloads accept any byte, opcode positions do not.
        let mid = (insns[insns.len() / 2].addr - bin.text_base) as usize;
        let mut broken = bin.clone();
        broken.text[mid] = 0xFF;
        assert!(extract(&broken, FeatureView::Stripped).is_err());
        let lenient = extract_lenient(&broken, FeatureView::Stripped);
        assert!(lenient.coverage.bytes_skipped >= 1);
        assert!(lenient
            .diagnostics
            .entries
            .iter()
            .any(|d| d.stage == PipelineStage::Decode));
        assert!(!lenient.extraction.vars.is_empty());
    }

    #[test]
    fn symbol_ranges_mirror_split_semantics() {
        let mut bin = sample_binary(OptLevel::O0, 12);
        // Same corruption as the split_functions test: duplicates,
        // aliases, spilling lengths.
        let dup = bin.symbols[0].clone();
        bin.symbols.push(dup);
        let mut alias = bin.symbols[1].clone();
        alias.name = "alias".to_string();
        alias.len += 4;
        bin.symbols.push(alias);
        bin.symbols[0].len += bin.symbols[1].len / 2;
        let ranges = symbol_byte_ranges(&bin);
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping byte ranges {w:?}");
        }
        for &(start, end) in &ranges {
            assert!(start < end);
            assert!(end <= bin.text.len());
        }
        let insns = bin.disassemble().unwrap();
        assert_eq!(ranges.len(), split_functions(&insns, &bin).len());
    }

    #[test]
    fn function_local_mode_is_identical_to_default_extraction() {
        for seed in 0..6 {
            let bin = sample_binary(OptLevel::O0, 30 + seed);
            for view in [FeatureView::WithSymbols, FeatureView::Stripped] {
                let default = extract(&bin, view).unwrap();
                let explicit = extract_mode(&bin, view, ContextMode::FunctionLocal).unwrap();
                assert_eq!(default, explicit);
            }
        }
    }

    #[test]
    fn interproc_mode_keeps_varkeys_and_splices_some_windows() {
        let mut any_spliced = false;
        for seed in 0..30 {
            let bin = sample_binary(OptLevel::O0, 40 + seed);
            let local = extract(&bin, FeatureView::WithSymbols).unwrap();
            let inter =
                extract_mode(&bin, FeatureView::WithSymbols, ContextMode::Interprocedural).unwrap();
            // Splicing changes window *content*, never which variables
            // exist or how many VUCs each one owns.
            let keys = |ex: &Extraction| ex.vars.iter().map(|v| v.key).collect::<Vec<_>>();
            assert_eq!(keys(&local), keys(&inter));
            assert_eq!(local.vucs.len(), inter.vucs.len());
            for (a, b) in local.vucs.iter().zip(&inter.vucs) {
                assert_eq!(a.var, b.var);
                assert_eq!(a.insns.len(), b.insns.len());
                // Interior (non-padding) slots are untouched.
                assert_eq!(a.insns[WINDOW], b.insns[WINDOW]);
                for (ga, gb) in a.insns.iter().zip(&b.insns) {
                    if ga.mnemonic() != "BLANK" {
                        assert_eq!(ga, gb, "splice must only replace BLANK padding");
                    }
                }
            }
            if local.vucs.iter().zip(&inter.vucs).any(|(a, b)| a != b) {
                any_spliced = true;
            }
        }
        assert!(
            any_spliced,
            "no window gained interprocedural context in 30 binaries"
        );
    }

    #[test]
    fn interproc_lenient_matches_strict_on_clean_binary() {
        let bin = sample_binary(OptLevel::O0, 13);
        for view in [FeatureView::WithSymbols, FeatureView::Stripped] {
            let strict = extract_mode(&bin, view, ContextMode::Interprocedural).unwrap();
            let lenient = extract_lenient_mode_observed(
                &bin,
                view,
                ContextMode::Interprocedural,
                &cati_obs::NOOP,
            );
            assert_eq!(strict, lenient.extraction);
            assert!(lenient.diagnostics.is_empty());
        }
    }

    #[test]
    fn window_counters_account_for_every_edge_slot() {
        fn counter(obs: &cati_obs::Recorder, name: &str) -> u64 {
            obs.snapshot()
                .counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        }
        let bin = sample_binary(OptLevel::O0, 14);
        let obs = cati_obs::Recorder::new(cati_obs::RecorderConfig::default());
        let ex = extract_mode_observed(
            &bin,
            FeatureView::WithSymbols,
            ContextMode::Interprocedural,
            &obs,
        )
        .unwrap();
        let padded = counter(&obs, "extract.windows_padded");
        let spliced = counter(&obs, "extract.windows_spliced");
        let blanks: u64 = ex
            .vucs
            .iter()
            .flat_map(|v| v.insns.iter())
            .filter(|g| g.tokens.iter().all(|t| t == "BLANK"))
            .count() as u64;
        // Every BLANK slot was counted as padding; spliced slots are
        // the non-blank remainder of the edge overhang.
        assert_eq!(padded, blanks);
        let local_obs = cati_obs::Recorder::new(cati_obs::RecorderConfig::default());
        extract_mode_observed(
            &bin,
            FeatureView::WithSymbols,
            ContextMode::FunctionLocal,
            &local_obs,
        )
        .unwrap();
        assert_eq!(counter(&local_obs, "extract.windows_spliced"), 0);
        assert_eq!(
            counter(&local_obs, "extract.windows_padded"),
            padded + spliced,
            "splices must replace padding one-for-one"
        );
    }

    #[test]
    fn function_split_matches_symbols() {
        let bin = sample_binary(OptLevel::O1, 7);
        let insns = bin.disassemble().unwrap();
        let funcs = split_functions(&insns, &bin);
        let n_real_syms = bin
            .symbols
            .iter()
            .filter(|s| s.addr >= bin.text_base)
            .count();
        assert_eq!(funcs.len(), n_real_syms);
        // Stripped split-by-ret finds the same count here.
        let stripped = bin.strip();
        let funcs2 = split_functions(&insns, &stripped);
        assert_eq!(funcs2.len(), funcs.len());
    }
}
