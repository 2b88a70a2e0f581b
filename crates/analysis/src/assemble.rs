//! Pluggable VUC window assembly.
//!
//! The paper's extraction cuts every 21-slot window inside one
//! function and BLANK-pads past the edges (§II-A). "Beyond the Edge
//! of Function" shows those padded slots discard the strongest type
//! evidence there is: argument and return flows across `call`/`ret`
//! sites. This module factors the window-cutting decision out of
//! [`mod@crate::extract`] into a [`ContextAssembler`] with two modes:
//!
//! - [`ContextMode::FunctionLocal`] — the paper baseline. The plan it
//!   produces is position-for-position identical to the historical
//!   inline loop, so extraction (and everything trained on it) stays
//!   bit-identical.
//! - [`ContextMode::Interprocedural`] — consults a [`CallGraph`] and
//!   replaces edge padding with real context when the target variable
//!   provably flows across the boundary:
//!   1. *parameter splice*: the window has leading blanks and the
//!      prologue homes an argument register into the variable's slot
//!      → splice the canonical caller's instructions up to and
//!      including its `call`, right-aligned against the entry;
//!   2. *argument splice*: the window has trailing blanks and the
//!      variable is loaded into a System V integer argument register
//!      before a resolved `call` later in the body → splice the
//!      callee's prologue;
//!   3. *return splice*: the window has trailing blanks, the body
//!      ends in `ret`, and the variable is loaded into `%rax` on the
//!      way out → splice the canonical caller's continuation after
//!      its call site.
//!
//! The canonical caller is the lowest `(function, position)` call
//! site — a deterministic choice, independent of hash-map iteration.
//! Slots the rules cannot fill stay BLANK, so a corrupt callee (a
//! `None` body under lenient extraction) degrades a splice back to
//! exactly the padding the baseline would have emitted.

use crate::callgraph::CallGraph;
use cati_asm::codec::Located;
use cati_asm::insn::{Insn, MemAccess, Operand};
use cati_asm::mnemonic::Mnemonic;
use cati_asm::reg::Gpr;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::extract::{VUC_LEN, WINDOW};

/// How far into a body the prologue scan looks for parameter homing
/// (push/mov/sub plus up to six integer homes, with slack).
const PROLOGUE_SCAN: usize = 24;

/// System V AMD64 integer argument registers, in call order
/// (`%rdi %rsi %rdx %rcx %r8 %r9` by `Gpr::num`).
pub const INT_ARG_REG_NUMS: [u8; 6] = [7, 6, 2, 1, 8, 9];

/// `Gpr::num` of the integer return register family (`%rax`).
pub const RET_REG_NUM: u8 = 0;

/// Which context a VUC window draws from at the function edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ContextMode {
    /// Paper baseline: windows stop at the function boundary and the
    /// overhang is BLANK padding. Bit-identical to the pre-assembler
    /// extraction.
    #[default]
    FunctionLocal,
    /// Call-graph-assisted windows: argument/return flows across
    /// `call`/`ret` sites splice callee or caller instructions into
    /// the padding.
    Interprocedural,
}

impl ContextMode {
    /// Both modes, baseline first — the ablation axis order.
    pub const ALL: [ContextMode; 2] = [ContextMode::FunctionLocal, ContextMode::Interprocedural];

    /// Stable short name: `function` / `interproc`. Used by the CLI
    /// flag, cache keys and manifests.
    pub fn name(self) -> &'static str {
        match self {
            ContextMode::FunctionLocal => "function",
            ContextMode::Interprocedural => "interproc",
        }
    }

    /// Parses the CLI spelling (a few aliases accepted).
    pub fn parse(s: &str) -> Option<ContextMode> {
        match s {
            "function" | "local" | "function-local" => Some(ContextMode::FunctionLocal),
            "interproc" | "interprocedural" => Some(ContextMode::Interprocedural),
            _ => None,
        }
    }
}

impl std::fmt::Display for ContextMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// Manual serde: the mode serializes as its short name, and a missing
// field deserializes as the baseline. Configs and models written
// before the mode existed therefore load unchanged, and a
// FunctionLocal config can keep serializing without the field — the
// byte stability the golden-fixture tests pin.
impl Serialize for ContextMode {
    fn to_value(&self) -> Value {
        Value::String(self.name().to_string())
    }
}

impl Deserialize for ContextMode {
    fn from_value(v: &Value) -> Result<ContextMode, DeError> {
        let s = v
            .as_str()
            .ok_or_else(|| DeError::expected("context mode string", v))?;
        ContextMode::parse(s).ok_or_else(|| DeError::unknown_variant(s, "ContextMode"))
    }

    fn missing() -> Option<ContextMode> {
        Some(ContextMode::FunctionLocal)
    }
}

/// Where one window slot draws its instruction from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// No context available: BLANK padding.
    Blank,
    /// Instruction at this position of the *target* function's body.
    Local(usize),
    /// Instruction spliced from another function's body.
    Spliced {
        /// Function index the instruction comes from.
        func: u32,
        /// Position inside that function's body.
        pos: usize,
    },
}

/// A fully decided 21-slot window: what goes where, before
/// generalization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowPlan {
    /// Exactly [`VUC_LEN`] slot decisions; index [`WINDOW`] is always
    /// `Slot::Local(target)`.
    pub slots: Vec<Slot>,
}

impl WindowPlan {
    /// Number of slots left BLANK.
    pub fn padded(&self) -> usize {
        self.slots.iter().filter(|s| **s == Slot::Blank).count()
    }

    /// Number of slots filled from another function.
    pub fn spliced(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, Slot::Spliced { .. }))
            .count()
    }
}

/// Everything the assembler needs to know about the target variable.
#[derive(Debug, Clone, Copy)]
pub struct TargetVar<'a> {
    /// Index of the variable in the caller's resolution table.
    pub vid: u32,
    /// Canonical frame-slot base offset.
    pub offset: i32,
    /// The function's frame base register.
    pub frame_base: Gpr,
    /// Per-instruction variable resolution for the owning function
    /// (`insn_var[p] == Some(vid)` ⇔ instruction `p` operates the
    /// target variable).
    pub insn_var: &'a [Option<u32>],
}

/// Per-binary window planner. Construction is cheap for the baseline
/// and builds the call graph once for the interprocedural mode.
pub struct ContextAssembler<'a> {
    mode: ContextMode,
    bodies: &'a [Option<&'a [Located]>],
    graph: Option<CallGraph>,
}

impl<'a> ContextAssembler<'a> {
    /// Creates the assembler over split bodies (`None` slots are
    /// functions the lenient path skipped).
    pub fn new(mode: ContextMode, bodies: &'a [Option<&'a [Located]>]) -> ContextAssembler<'a> {
        let graph = match mode {
            ContextMode::FunctionLocal => None,
            ContextMode::Interprocedural => Some(CallGraph::build(bodies)),
        };
        ContextAssembler {
            mode,
            bodies,
            graph,
        }
    }

    /// The mode this assembler runs in.
    pub fn mode(&self) -> ContextMode {
        self.mode
    }

    /// The call graph, when the mode builds one.
    pub fn graph(&self) -> Option<&CallGraph> {
        self.graph.as_ref()
    }

    /// Resolves a planned slot to its instruction, if it has one.
    pub fn instruction(&self, func: u32, slot: Slot) -> Option<&'a Located> {
        match slot {
            Slot::Blank => None,
            Slot::Local(j) => self.bodies[func as usize].and_then(|b| b.get(j)),
            Slot::Spliced { func, pos } => self.bodies[func as usize].and_then(|b| b.get(pos)),
        }
    }

    /// Plans the 21-slot window around target instruction `i` of
    /// function `func`.
    pub fn plan(&self, func: u32, i: usize, var: &TargetVar<'_>) -> WindowPlan {
        let body = self.bodies[func as usize].unwrap_or(&[]);
        // Baseline layout first — identical to the historical loop:
        // blank outside [0, len), local index inside.
        let mut slots = Vec::with_capacity(VUC_LEN);
        for j in i as i64 - WINDOW as i64..=i as i64 + WINDOW as i64 {
            if j < 0 || j as usize >= body.len() {
                slots.push(Slot::Blank);
            } else {
                slots.push(Slot::Local(j as usize));
            }
        }
        let mut plan = WindowPlan { slots };
        if self.mode == ContextMode::Interprocedural {
            self.splice(func, body, i, var, &mut plan);
        }
        plan
    }

    /// Applies the three interprocedural splice rules in place.
    fn splice(
        &self,
        func: u32,
        body: &[Located],
        i: usize,
        var: &TargetVar<'_>,
        plan: &mut WindowPlan,
    ) {
        let Some(graph) = self.graph.as_ref() else {
            return;
        };
        let leading = WINDOW.saturating_sub(i);
        let trailing = (i + WINDOW + 1).saturating_sub(body.len());

        // Rule 1: parameter splice. The prologue homes an argument
        // register into the variable's slot, so the bytes "before"
        // the entry are really the canonical caller's call sequence.
        if leading > 0 && is_homed_param(body, var) {
            if let Some(site) = graph.callers_of(func).next() {
                if let Some(caller_body) = self.bodies[site.caller as usize] {
                    for t in 0..leading {
                        let Some(pos) = (site.pos as usize).checked_sub(t) else {
                            break;
                        };
                        if caller_body.get(pos).is_none() {
                            break;
                        }
                        plan.slots[leading - 1 - t] = Slot::Spliced {
                            func: site.caller,
                            pos,
                        };
                    }
                }
            }
        }

        if trailing == 0 {
            return;
        }

        // Rule 2: argument splice. The variable is loaded into an
        // integer argument register before a resolved call later in
        // the body — what runs after the edge is the callee prologue.
        let arg_call = (i + 1..body.len()).find_map(|c| {
            let callee = graph.callee_at(func, c)?;
            let flows = (i..c).any(|p| {
                var.insn_var[p] == Some(var.vid) && loads_into(&body[p].insn, &INT_ARG_REG_NUMS)
            });
            (flows && self.bodies[callee as usize].is_some()).then_some(callee)
        });
        if let Some(callee) = arg_call {
            let callee_body = self.bodies[callee as usize].unwrap_or(&[]);
            for t in 0..trailing.min(callee_body.len()) {
                plan.slots[VUC_LEN - trailing + t] = Slot::Spliced {
                    func: callee,
                    pos: t,
                };
            }
            return;
        }

        // Rule 3: return splice. The body ends in `ret` and the
        // variable reaches `%rax` on the way out — what runs after
        // the edge is the canonical caller's continuation.
        let ends_in_ret = body.last().map(|l| l.insn.mnemonic) == Some(Mnemonic::Ret);
        let flows_to_ret = ends_in_ret
            && (i..body.len()).any(|p| {
                var.insn_var[p] == Some(var.vid) && loads_into(&body[p].insn, &[RET_REG_NUM])
            });
        if flows_to_ret {
            if let Some(site) = graph.callers_of(func).next() {
                if let Some(caller_body) = self.bodies[site.caller as usize] {
                    for t in 0..trailing {
                        let pos = site.pos as usize + 1 + t;
                        if caller_body.get(pos).is_none() {
                            break;
                        }
                        plan.slots[VUC_LEN - trailing + t] = Slot::Spliced {
                            func: site.caller,
                            pos,
                        };
                    }
                }
            }
        }
    }
}

/// Whether the prologue stores an integer argument register into the
/// variable's frame slot — the compiler idiom for homing a parameter.
fn is_homed_param(body: &[Located], var: &TargetVar<'_>) -> bool {
    body.iter().take(PROLOGUE_SCAN).any(|l| {
        let Some((mem, access)) = l.insn.mem_operand() else {
            return false;
        };
        access == MemAccess::Write
            && mem.base.map(|b| b.num()) == Some(var.frame_base.num())
            && mem.disp == var.offset
            && stored_reg(&l.insn)
                .map(|r| INT_ARG_REG_NUMS.contains(&r.num()))
                .unwrap_or(false)
    })
}

/// The register a `mov reg, mem` stores (AT&T order: source first).
fn stored_reg(insn: &Insn) -> Option<Gpr> {
    match insn.operands.first()? {
        Operand::Reg(r) => Some(*r),
        _ => None,
    }
}

/// Whether `insn` reads its memory operand into a register whose
/// `Gpr::num` is in `regs` — the shape of an argument or return-value
/// load (`mov`/`movsx`/`movzx` from the frame slot).
fn loads_into(insn: &Insn, regs: &[u8]) -> bool {
    let Some((_, access)) = insn.mem_operand() else {
        return false;
    };
    if access != MemAccess::Read {
        return false;
    }
    match insn.operands.last() {
        Some(Operand::Reg(r)) => regs.contains(&r.num()),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_round_trips_through_serde() {
        for mode in ContextMode::ALL {
            let v = mode.to_value();
            assert_eq!(ContextMode::from_value(&v).unwrap(), mode);
            assert_eq!(ContextMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(
            <ContextMode as Deserialize>::missing(),
            Some(ContextMode::FunctionLocal)
        );
        assert!(ContextMode::parse("nope").is_none());
    }

    #[test]
    fn function_local_plan_matches_baseline_shape() {
        use cati_asm::parse::parse_insn;
        let insns: Vec<Located> = (0..5)
            .map(|k| Located {
                addr: 0x1000 + k * 3,
                len: 3,
                insn: parse_insn("mov -0x8(%rbp),%eax").unwrap().insn,
            })
            .collect();
        let bodies: Vec<Option<&[Located]>> = vec![Some(&insns)];
        let asm = ContextAssembler::new(ContextMode::FunctionLocal, &bodies);
        let var = TargetVar {
            vid: 0,
            offset: -8,
            frame_base: cati_asm::reg::regs::rbp(),
            insn_var: &[Some(0); 5],
        };
        let plan = asm.plan(0, 2, &var);
        assert_eq!(plan.slots.len(), VUC_LEN);
        assert_eq!(plan.slots[WINDOW], Slot::Local(2));
        assert_eq!(plan.padded(), VUC_LEN - 5);
        assert_eq!(plan.spliced(), 0);
        for (k, slot) in plan.slots.iter().enumerate() {
            let j = k as i64 + 2 - WINDOW as i64;
            if (0..5).contains(&j) {
                assert_eq!(*slot, Slot::Local(j as usize));
            } else {
                assert_eq!(*slot, Slot::Blank);
            }
        }
    }
}
