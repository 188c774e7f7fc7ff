//! Vectorized expression kernels: batch evaluation over typed chunks.
//!
//! The scalar evaluator ([`crate::eval`]) interprets a [`Bound`] tree per
//! row — every cell goes through a `Value` match. This module lowers the
//! same expressions to a flat **register program** over type-specialized
//! column chunks ([`ColVec`]): each instruction processes a batch of up to
//! [`BATCH_ROWS`] rows in a tight monomorphic loop (`&[i64]` + `&[i64]` →
//! `Vec<i64>`), so the per-row cost is an add and a bounds check instead
//! of an enum dispatch and a heap-happy `Value` clone.
//!
//! Kernels only ever run as stages of a **chain program**
//! ([`ChainBuilder`] → [`ChainProg`]): the one vectorized form of a
//! `Select`/`Project`/`Compute`/`Attach` run, a lone operator being a
//! chain of one. `crate::exec` streams the chain's input through every
//! stage batch by batch; there is no node-at-a-time kernel dispatch
//! beside it. [`ParConfig::vectorize`] decides when a chain or typed sink
//! runs at all.
//!
//! ## Semantics contract
//!
//! The kernels are *observably identical* to the scalar oracle — same
//! values, same errors (message strings included) — with one deliberate
//! freedom: when several rows of one batch fail, the reported row may
//! differ (scalar walks rows outer-most, kernels walk instructions
//! outer-most). Three scalar behaviours cannot be reproduced by a
//! straight-line batch program, so [`compile`] refuses those expressions
//! and the chain falls back to the scalar operators:
//!
//! - `AND`/`OR` short-circuiting: a kernel evaluates both sides for the
//!   whole batch, so a *fallible* right-hand side (one that can raise,
//!   e.g. a division) must not be vectorized.
//! - `CASE` evaluates only the taken branch per row; kernels pre-evaluate
//!   both, so fallible branches bail out.
//! - `Nat` division/modulo are not defined by the scalar oracle (they hit
//!   its catch-all error) — kernels don't invent them.
//!
//! Everything else — checked `Int`/`Nat` arithmetic with the oracle's
//! exact error strings, `wrapping_div` after the zero check (pinning the
//! `i64::MIN / -1` quirk), `total_cmp` double ordering — is reproduced
//! instruction by instruction. `tests/differential.rs` locks the contract
//! in cell-for-cell.

use crate::error::EngineError;
use crate::eval;
use ferry_algebra::{BinOp, ColVec, Expr, Rel, Schema, Ty, UnOp, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Rows per kernel batch. Large enough to amortise dispatch, small enough
/// that a batch's registers stay cache-resident.
pub const BATCH_ROWS: usize = 1024;

/// Execution-path selection. Every operator has the scalar
/// (row-at-a-time `Bound` interpretation) implementation; the vectorized
/// one is the chain program for `Select`/`Compute`/`Attach` runs (a lone
/// operator is a chain of one — see `crate::exec`) and the typed sinks
/// (joins, windows, group-by, distinct, difference, serialize). See
/// `DESIGN.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VecMode {
    /// Vectorize when the input is large enough to amortise the one-off
    /// column transposition; small inputs stay scalar.
    #[default]
    Auto,
    /// Scalar only — the kernel-bail fallback doubles as the differential
    /// oracle.
    Off,
    /// Vectorize whenever a kernel can be compiled, regardless of input
    /// size (differential tests force this to cover tiny inputs).
    Force,
}

/// Execution configuration carried by a `Database` (and settable through
/// a `Connection`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParConfig {
    /// Scalar vs vectorized path selection.
    pub vec: VecMode,
}

impl ParConfig {
    /// Should a chain or typed sink over `n` input rows take the
    /// vectorized path (assuming its kernels compile)? The `Auto` threshold
    /// is deliberately low: the transposition is cached on the shared
    /// buffer, so it amortises across operators, not just within one.
    pub fn vectorize(&self, n: usize) -> bool {
        match self.vec {
            VecMode::Off => false,
            VecMode::Force => n > 0,
            VecMode::Auto => n >= 64,
        }
    }
}

fn ee(msg: impl Into<String>) -> EngineError {
    EngineError::Eval(msg.into())
}

/// A batch register: one column of intermediate results, type-specialized
/// like the chunks it is computed from. `Val` is the totality fallback
/// (unit columns and other slow domains).
#[derive(Debug)]
pub enum Reg {
    I64(Vec<i64>),
    U64(Vec<u64>),
    F64(Vec<f64>),
    Bool(Vec<bool>),
    Str(Vec<Arc<str>>),
    Val(Vec<Value>),
}

impl Reg {
    pub(crate) fn new(ty: Ty) -> Reg {
        match ty {
            Ty::Int => Reg::I64(Vec::new()),
            Ty::Nat => Reg::U64(Vec::new()),
            Ty::Dbl => Reg::F64(Vec::new()),
            Ty::Bool => Reg::Bool(Vec::new()),
            Ty::Str => Reg::Str(Vec::new()),
            Ty::Unit => Reg::Val(Vec::new()),
        }
    }

    /// Cell `k` as an owned [`Value`].
    pub fn value(&self, k: usize) -> Value {
        match self {
            Reg::I64(v) => Value::Int(v[k]),
            Reg::U64(v) => Value::Nat(v[k]),
            Reg::F64(v) => Value::Dbl(v[k]),
            Reg::Bool(v) => Value::Bool(v[k]),
            Reg::Str(v) => Value::Str(v[k].clone()),
            Reg::Val(v) => v[k].clone(),
        }
    }

    fn push(&mut self, v: Value) -> Result<(), EngineError> {
        match (self, v) {
            (Reg::I64(o), Value::Int(x)) => o.push(x),
            (Reg::U64(o), Value::Nat(x)) => o.push(x),
            (Reg::F64(o), Value::Dbl(x)) => o.push(x),
            (Reg::Bool(o), Value::Bool(x)) => o.push(x),
            (Reg::Str(o), Value::Str(x)) => o.push(x),
            (Reg::Val(o), v) => o.push(v),
            (_, v) => return Err(ee(format!("kernel register type confusion on {v}"))),
        }
        Ok(())
    }

    fn clear(&mut self) {
        match self {
            Reg::I64(v) => v.clear(),
            Reg::U64(v) => v.clear(),
            Reg::F64(v) => v.clear(),
            Reg::Bool(v) => v.clear(),
            Reg::Str(v) => v.clear(),
            Reg::Val(v) => v.clear(),
        }
    }

    /// Number of cells currently held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        match self {
            Reg::I64(v) => v.len(),
            Reg::U64(v) => v.len(),
            Reg::F64(v) => v.len(),
            Reg::Bool(v) => v.len(),
            Reg::Str(v) => v.len(),
            Reg::Val(v) => v.len(),
        }
    }

    /// Keep only the cells whose mask bit is set (in-place compaction —
    /// the fused filter applied to a carried column).
    pub(crate) fn retain_mask(&mut self, mask: &[bool]) {
        fn keep<T>(v: &mut Vec<T>, mask: &[bool]) {
            let mut k = 0;
            v.retain(|_| {
                let m = mask[k];
                k += 1;
                m
            });
        }
        match self {
            Reg::I64(v) => keep(v, mask),
            Reg::U64(v) => keep(v, mask),
            Reg::F64(v) => keep(v, mask),
            Reg::Bool(v) => keep(v, mask),
            Reg::Str(v) => keep(v, mask),
            Reg::Val(v) => keep(v, mask),
        }
    }

    /// Move all cells of `src` (same variant) onto the end of `self`.
    pub(crate) fn append(&mut self, src: &mut Reg) -> Result<(), EngineError> {
        match (self, src) {
            (Reg::I64(a), Reg::I64(b)) => a.append(b),
            (Reg::U64(a), Reg::U64(b)) => a.append(b),
            (Reg::F64(a), Reg::F64(b)) => a.append(b),
            (Reg::Bool(a), Reg::Bool(b)) => a.append(b),
            (Reg::Str(a), Reg::Str(b)) => a.append(b),
            (Reg::Val(a), Reg::Val(b)) => a.append(b),
            _ => return Err(confusion()),
        }
        Ok(())
    }

    /// Copy all cells of `src` (same variant) into `self`, replacing its
    /// contents (carry loads).
    fn copy_from(&mut self, src: &Reg) -> Result<(), EngineError> {
        self.clear();
        match (self, src) {
            (Reg::I64(a), Reg::I64(b)) => a.extend_from_slice(b),
            (Reg::U64(a), Reg::U64(b)) => a.extend_from_slice(b),
            (Reg::F64(a), Reg::F64(b)) => a.extend_from_slice(b),
            (Reg::Bool(a), Reg::Bool(b)) => a.extend_from_slice(b),
            (Reg::Str(a), Reg::Str(b)) => a.extend_from_slice(b),
            (Reg::Val(a), Reg::Val(b)) => a.extend_from_slice(b),
            _ => return Err(confusion()),
        }
        Ok(())
    }
}

/// One kernel instruction. Operands `a`/`b`/`cond`/… always index
/// registers allocated *before* `dst` (the compiler allocates the result
/// register after its operands), which the interpreter exploits to split
/// borrows.
#[derive(Debug, Clone)]
enum Instr {
    /// Gather chunk `slot` at the batch's buffer rows into `dst`.
    Load {
        slot: u16,
        dst: u16,
    },
    /// Copy carried column `carry` (batch-local, already compacted to the
    /// batch's surviving rows) into `dst`.
    LoadCarry {
        carry: u16,
        dst: u16,
    },
    /// Broadcast a constant across the batch.
    Splat {
        v: Value,
        dst: u16,
    },
    /// Checked `Int` arithmetic with the scalar oracle's semantics
    /// (including `wrapping_div`/`wrapping_rem` after the zero check).
    ArithI64 {
        op: BinOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    /// Checked `Nat` arithmetic (`Add`/`Sub`/`Mul` only).
    ArithU64 {
        op: BinOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    /// `Dbl` arithmetic; `Div`/`Mod` still error on a zero divisor.
    ArithF64 {
        op: BinOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    CmpI64 {
        op: BinOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    CmpU64 {
        op: BinOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    /// `total_cmp` ordering — `Value` comparison semantics, not IEEE.
    CmpF64 {
        op: BinOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    CmpBool {
        op: BinOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    CmpStr {
        op: BinOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    AndMask {
        a: u16,
        b: u16,
        dst: u16,
    },
    OrMask {
        a: u16,
        b: u16,
        dst: u16,
    },
    NotMask {
        a: u16,
        dst: u16,
    },
    NegI64 {
        a: u16,
        dst: u16,
    },
    NegF64 {
        a: u16,
        dst: u16,
    },
    Concat {
        a: u16,
        b: u16,
        dst: u16,
    },
    /// `cond ? t : e` element-wise. Both branches are pre-evaluated;
    /// [`compile`] only emits this when they are infallible.
    SelectCase {
        cond: u16,
        t: u16,
        e: u16,
        dst: u16,
    },
    /// Element-wise cast through the scalar oracle.
    CastVal {
        ty: Ty,
        a: u16,
        dst: u16,
    },
    /// Element-wise fallback through the scalar `bin_op` oracle (unit
    /// comparisons and other slow domains).
    BinVal {
        op: BinOp,
        a: u16,
        b: u16,
        dst: u16,
    },
}

/// A compiled kernel program: straight-line instructions over a register
/// file, plus the buffer columns it loads.
#[derive(Debug, Clone)]
pub struct Kernel {
    instrs: Vec<Instr>,
    /// Register allocation shape (`reg_tys[r]` is register `r`'s type).
    reg_tys: Vec<Ty>,
    /// Buffer column index per load slot.
    cols: Vec<u32>,
    /// Schema type per load slot (checked against chunk variants).
    col_tys: Vec<Ty>,
    /// Register holding the expression result.
    out: u16,
}

/// Where a chain-visible column really lives. Stage kernels
/// ([`compile`]) see the schema *after* upstream Project /
/// Compute / Attach stages, but load from the chain *input*: a visible
/// column is either an input column, a value carried from an earlier
/// Compute stage, or an attached constant.
#[derive(Debug, Clone)]
pub(crate) enum VirtSrc {
    /// Visible column `c` of the chain's input relation.
    Input(u32),
    /// Carried column `k` (result of the `k`-th Compute stage).
    Carry(u16),
    /// A constant attached mid-chain.
    Const(Value),
}

/// Dedup key for column loads: buffer/input columns and carried columns
/// live in different index spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LoadKey {
    Buf(u32),
    Carry(u16),
}

struct Compiler<'a> {
    schema: &'a Schema,
    /// Source of each column of `schema`.
    virt: &'a [VirtSrc],
    instrs: Vec<Instr>,
    reg_tys: Vec<Ty>,
    cols: Vec<u32>,
    col_tys: Vec<Ty>,
    /// load source → register already holding it.
    loaded: HashMap<LoadKey, (u16, Ty)>,
}

impl Compiler<'_> {
    fn reg(&mut self, ty: Ty) -> Option<u16> {
        if self.reg_tys.len() >= u16::MAX as usize {
            return None;
        }
        self.reg_tys.push(ty);
        Some((self.reg_tys.len() - 1) as u16)
    }

    /// Emit (or reuse) a load of chain-input column `col` typed `ty`.
    fn load_col(&mut self, col: u32, ty: Ty) -> Option<(u16, Ty)> {
        if let Some(&hit) = self.loaded.get(&LoadKey::Buf(col)) {
            return Some(hit);
        }
        let dst = self.reg(ty)?;
        let slot = self.cols.len() as u16;
        self.cols.push(col);
        self.col_tys.push(ty);
        self.instrs.push(Instr::Load { slot, dst });
        self.loaded.insert(LoadKey::Buf(col), (dst, ty));
        Some((dst, ty))
    }

    fn compile(&mut self, e: &Expr) -> Option<(u16, Ty)> {
        match e {
            Expr::Col(name) => {
                let idx = self.schema.index_of(name)?;
                let ty = self.schema.cols()[idx].1;
                match self.virt[idx].clone() {
                    VirtSrc::Input(c) => self.load_col(c, ty),
                    VirtSrc::Carry(k) => {
                        if let Some(&hit) = self.loaded.get(&LoadKey::Carry(k)) {
                            return Some(hit);
                        }
                        let dst = self.reg(ty)?;
                        self.instrs.push(Instr::LoadCarry { carry: k, dst });
                        self.loaded.insert(LoadKey::Carry(k), (dst, ty));
                        Some((dst, ty))
                    }
                    VirtSrc::Const(v) => {
                        if v.ty() != ty {
                            return None;
                        }
                        let dst = self.reg(ty)?;
                        self.instrs.push(Instr::Splat { v, dst });
                        Some((dst, ty))
                    }
                }
            }
            Expr::Const(v) => {
                let ty = v.ty();
                let dst = self.reg(ty)?;
                self.instrs.push(Instr::Splat { v: v.clone(), dst });
                Some((dst, ty))
            }
            Expr::Bin(op, l, r) => self.compile_bin(*op, l, r),
            Expr::Un(UnOp::Not, e) => {
                let (a, ty) = self.compile(e)?;
                if ty != Ty::Bool {
                    return None;
                }
                let dst = self.reg(Ty::Bool)?;
                self.instrs.push(Instr::NotMask { a, dst });
                Some((dst, Ty::Bool))
            }
            Expr::Un(UnOp::Neg, e) => {
                let (a, ty) = self.compile(e)?;
                let dst = self.reg(ty)?;
                match ty {
                    Ty::Int => self.instrs.push(Instr::NegI64 { a, dst }),
                    Ty::Dbl => self.instrs.push(Instr::NegF64 { a, dst }),
                    _ => return None,
                }
                Some((dst, ty))
            }
            Expr::Case(c, t, e) => {
                // scalar CASE evaluates only the taken branch — kernels
                // evaluate both, so fallible branches must stay scalar
                if !infallible(t, self.schema) || !infallible(e, self.schema) {
                    return None;
                }
                let (cond, ct) = self.compile(c)?;
                if ct != Ty::Bool {
                    return None;
                }
                let (tr, tt) = self.compile(t)?;
                let (er, et) = self.compile(e)?;
                if tt != et {
                    return None;
                }
                let dst = self.reg(tt)?;
                self.instrs.push(Instr::SelectCase {
                    cond,
                    t: tr,
                    e: er,
                    dst,
                });
                Some((dst, tt))
            }
            Expr::Cast(ty, e) => {
                let (a, et) = self.compile(e)?;
                if et == *ty {
                    return Some((a, et)); // identity cast: reuse the register
                }
                let dst = self.reg(*ty)?;
                self.instrs.push(Instr::CastVal { ty: *ty, a, dst });
                Some((dst, *ty))
            }
            // unbound: the scalar path reports it
            Expr::Param(..) => None,
        }
    }

    fn compile_bin(&mut self, op: BinOp, l: &Expr, r: &Expr) -> Option<(u16, Ty)> {
        if op.is_logic() {
            // scalar AND/OR short-circuits the right side — a fallible
            // right side must not be batch-evaluated
            if !infallible(r, self.schema) {
                return None;
            }
            let (a, lt) = self.compile(l)?;
            let (b, rt) = self.compile(r)?;
            if lt != Ty::Bool || rt != Ty::Bool {
                return None;
            }
            let dst = self.reg(Ty::Bool)?;
            self.instrs.push(match op {
                BinOp::And => Instr::AndMask { a, b, dst },
                _ => Instr::OrMask { a, b, dst },
            });
            return Some((dst, Ty::Bool));
        }
        let (a, lt) = self.compile(l)?;
        let (b, rt) = self.compile(r)?;
        if lt != rt {
            return None; // the oracle never coerces across domains
        }
        if op.is_cmp() {
            let dst = self.reg(Ty::Bool)?;
            self.instrs.push(match lt {
                Ty::Int => Instr::CmpI64 { op, a, b, dst },
                Ty::Nat => Instr::CmpU64 { op, a, b, dst },
                Ty::Dbl => Instr::CmpF64 { op, a, b, dst },
                Ty::Bool => Instr::CmpBool { op, a, b, dst },
                Ty::Str => Instr::CmpStr { op, a, b, dst },
                Ty::Unit => Instr::BinVal { op, a, b, dst },
            });
            return Some((dst, Ty::Bool));
        }
        if op == BinOp::Concat {
            if lt != Ty::Str {
                return None;
            }
            let dst = self.reg(Ty::Str)?;
            self.instrs.push(Instr::Concat { a, b, dst });
            return Some((dst, Ty::Str));
        }
        debug_assert!(op.is_arith());
        let dst = self.reg(lt)?;
        self.instrs.push(match lt {
            Ty::Int => Instr::ArithI64 { op, a, b, dst },
            // Nat Div/Mod are undefined in the scalar oracle
            Ty::Nat if !matches!(op, BinOp::Div | BinOp::Mod) => Instr::ArithU64 { op, a, b, dst },
            Ty::Dbl => Instr::ArithF64 { op, a, b, dst },
            _ => return None,
        });
        Some((dst, lt))
    }
}

/// Can evaluating `e` ever raise? Conservative: `false` only when the
/// expression provably cannot error on any row (comparisons, logic,
/// concat, `Dbl` add/sub/mul, widening casts). Checked integer arithmetic,
/// divisions and narrowing casts are fallible.
fn infallible(e: &Expr, schema: &Schema) -> bool {
    match e {
        Expr::Col(_) | Expr::Const(_) => true,
        Expr::Param(..) => false,
        Expr::Bin(op, l, r) => {
            if !infallible(l, schema) || !infallible(r, schema) {
                return false;
            }
            if op.is_cmp() || op.is_logic() || *op == BinOp::Concat {
                return true;
            }
            // arithmetic: only Dbl Add/Sub/Mul cannot raise
            matches!(l.infer_ty(schema), Some(Ty::Dbl))
                && matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul)
        }
        Expr::Un(UnOp::Not, e) => infallible(e, schema),
        Expr::Un(UnOp::Neg, e) => {
            // Int negation overflows on i64::MIN
            infallible(e, schema) && matches!(e.infer_ty(schema), Some(Ty::Dbl))
        }
        Expr::Case(c, t, e) => {
            infallible(c, schema) && infallible(t, schema) && infallible(e, schema)
        }
        Expr::Cast(ty, e) => {
            if !infallible(e, schema) {
                return false;
            }
            match (e.infer_ty(schema), ty) {
                (Some(et), ty) if et == *ty => true,
                // widening casts never raise
                (Some(Ty::Int | Ty::Nat | Ty::Bool), Ty::Dbl) => true,
                (Some(Ty::Bool), Ty::Int | Ty::Nat) => true,
                _ => false,
            }
        }
    }
}

/// Lower `expr` (typed against the *chain-visible* `schema`, whose columns
/// resolve through `virt` to chain-input columns, carried stage results,
/// or constants) to a kernel program. The `cols` of the result index the
/// chain input's **visible** columns; [`ChainProg::bind`] maps them to
/// buffer columns. `None` means the expression must stay on the scalar
/// path — see the module docs for the exact bail-out conditions.
pub(crate) fn compile(expr: &Expr, schema: &Schema, virt: &[VirtSrc]) -> Option<Kernel> {
    let mut c = Compiler {
        schema,
        virt,
        instrs: Vec::new(),
        reg_tys: Vec::new(),
        cols: Vec::new(),
        col_tys: Vec::new(),
        loaded: HashMap::new(),
    };
    let (out, _) = c.compile(expr)?;
    Some(Kernel {
        instrs: c.instrs,
        reg_tys: c.reg_tys,
        cols: c.cols,
        col_tys: c.col_tys,
        out,
    })
}

/// Does the chunk's storage variant match the slot's schema type? A
/// mismatch (possible only for buffers built outside schema validation)
/// sends the chain to the scalar path.
fn variant_matches(ty: Ty, chunk: &ColVec) -> bool {
    matches!(
        (ty, chunk),
        (Ty::Int, ColVec::Int(_))
            | (Ty::Nat, ColVec::Nat(_))
            | (Ty::Dbl, ColVec::Dbl(_))
            | (Ty::Bool, ColVec::Bool(_))
            | (Ty::Str, ColVec::Str { .. })
            | (Ty::Unit, ColVec::Other(_))
    )
}

/// Map a comparison operator to its `Ordering` predicate.
fn cmp_keep(op: BinOp) -> fn(Ordering) -> bool {
    match op {
        BinOp::Eq => |o| o == Ordering::Equal,
        BinOp::Ne => |o| o != Ordering::Equal,
        BinOp::Lt => |o| o == Ordering::Less,
        BinOp::Le => |o| o != Ordering::Greater,
        BinOp::Gt => |o| o == Ordering::Greater,
        _ => |o| o != Ordering::Less,
    }
}

/// Split the register file at `dst` (operands always precede results).
fn split_dst(regs: &mut [Reg], dst: u16) -> (&[Reg], &mut Reg) {
    let (lo, hi) = regs.split_at_mut(dst as usize);
    (lo, &mut hi[0])
}

fn confusion() -> EngineError {
    ee("kernel register type confusion")
}

macro_rules! zip_bin {
    ($lo:expr, $out:expr, $a:expr, $b:expr, $in_pat:path, $out_pat:path, $f:expr) => {{
        let ($in_pat(xa), $in_pat(xb), $out_pat(o)) =
            (&$lo[*$a as usize], &$lo[*$b as usize], $out)
        else {
            return Err(confusion());
        };
        o.clear();
        for (x, y) in xa.iter().zip(xb) {
            o.push($f(*x, *y)?);
        }
    }};
}

impl Kernel {
    /// Allocate a register file for this program (reused across batches).
    pub fn alloc_regs(&self) -> Vec<Reg> {
        self.reg_tys.iter().map(|&t| Reg::new(t)).collect()
    }

    /// Chain-input visible columns the program loads, in slot order.
    pub fn columns(&self) -> &[u32] {
        &self.cols
    }

    /// Register index holding the result after [`Kernel::run`].
    pub fn out_reg(&self) -> usize {
        self.out as usize
    }

    /// Type of the result register.
    pub fn out_ty(&self) -> Ty {
        self.reg_tys[self.out as usize]
    }

    /// Are these chunks (one per load slot) usable by this program?
    pub fn accepts(&self, chunks: &[Arc<ColVec>]) -> bool {
        chunks.len() == self.col_tys.len()
            && self
                .col_tys
                .iter()
                .zip(chunks)
                .all(|(&t, c)| variant_matches(t, c))
    }

    /// Execute the program for one batch: `rows` holds the **buffer** row
    /// indices of the batch, `chunks` the full-buffer columns per load
    /// slot, `carries[k]` the batch-local result of an earlier chain
    /// stage, already compacted to exactly the rows of this batch. On
    /// success, `regs[self.out_reg()]` holds one result per row.
    pub(crate) fn run(
        &self,
        chunks: &[Arc<ColVec>],
        carries: &[Reg],
        rows: &[u32],
        regs: &mut [Reg],
    ) -> Result<(), EngineError> {
        let n = rows.len();
        for instr in &self.instrs {
            match instr {
                Instr::LoadCarry { carry, dst } => {
                    regs[*dst as usize].copy_from(&carries[*carry as usize])?;
                }
                Instr::Load { slot, dst } => {
                    let chunk = chunks[*slot as usize].as_ref();
                    let reg = &mut regs[*dst as usize];
                    reg.clear();
                    match (chunk, reg) {
                        (ColVec::Int(v), Reg::I64(o)) => {
                            o.extend(rows.iter().map(|&i| v[i as usize]));
                        }
                        (ColVec::Nat(v), Reg::U64(o)) => {
                            o.extend(rows.iter().map(|&i| v[i as usize]));
                        }
                        (ColVec::Dbl(v), Reg::F64(o)) => {
                            o.extend(rows.iter().map(|&i| v[i as usize]));
                        }
                        (ColVec::Bool(v), Reg::Bool(o)) => {
                            o.extend(rows.iter().map(|&i| v[i as usize]));
                        }
                        (ColVec::Str { codes, dict }, Reg::Str(o)) => {
                            o.extend(
                                rows.iter()
                                    .map(|&i| dict[codes[i as usize] as usize].clone()),
                            );
                        }
                        (c, Reg::Val(o)) => o.extend(rows.iter().map(|&i| c.value(i as usize))),
                        _ => return Err(confusion()),
                    }
                }
                Instr::Splat { v, dst } => {
                    let reg = &mut regs[*dst as usize];
                    reg.clear();
                    match (reg, v) {
                        (Reg::I64(o), Value::Int(x)) => o.resize(n, *x),
                        (Reg::U64(o), Value::Nat(x)) => o.resize(n, *x),
                        (Reg::F64(o), Value::Dbl(x)) => o.resize(n, *x),
                        (Reg::Bool(o), Value::Bool(x)) => o.resize(n, *x),
                        (Reg::Str(o), Value::Str(x)) => o.resize(n, x.clone()),
                        (Reg::Val(o), v) => o.resize(n, v.clone()),
                        _ => return Err(confusion()),
                    }
                }
                Instr::ArithI64 { op, a, b, dst } => {
                    let (lo, out) = split_dst(regs, *dst);
                    match op {
                        BinOp::Add => {
                            zip_bin!(lo, out, a, b, Reg::I64, Reg::I64, |x: i64, y: i64| {
                                x.checked_add(y).ok_or_else(|| ee("integer overflow in +"))
                            })
                        }
                        BinOp::Sub => {
                            zip_bin!(lo, out, a, b, Reg::I64, Reg::I64, |x: i64, y: i64| {
                                x.checked_sub(y).ok_or_else(|| ee("integer overflow in -"))
                            })
                        }
                        BinOp::Mul => {
                            zip_bin!(lo, out, a, b, Reg::I64, Reg::I64, |x: i64, y: i64| {
                                x.checked_mul(y).ok_or_else(|| ee("integer overflow in *"))
                            })
                        }
                        BinOp::Div => {
                            zip_bin!(lo, out, a, b, Reg::I64, Reg::I64, |x: i64, y: i64| {
                                if y == 0 {
                                    Err(ee("division by zero"))
                                } else {
                                    // scalar-oracle quirk: i64::MIN / -1 wraps
                                    Ok(x.wrapping_div(y))
                                }
                            })
                        }
                        _ => zip_bin!(lo, out, a, b, Reg::I64, Reg::I64, |x: i64, y: i64| {
                            if y == 0 {
                                Err(ee("modulo by zero"))
                            } else {
                                Ok(x.wrapping_rem(y))
                            }
                        }),
                    }
                }
                Instr::ArithU64 { op, a, b, dst } => {
                    let (lo, out) = split_dst(regs, *dst);
                    match op {
                        BinOp::Add => {
                            zip_bin!(lo, out, a, b, Reg::U64, Reg::U64, |x: u64, y: u64| {
                                x.checked_add(y).ok_or_else(|| ee("nat overflow in +"))
                            })
                        }
                        BinOp::Sub => {
                            zip_bin!(lo, out, a, b, Reg::U64, Reg::U64, |x: u64, y: u64| {
                                x.checked_sub(y).ok_or_else(|| ee("nat underflow in -"))
                            })
                        }
                        _ => zip_bin!(lo, out, a, b, Reg::U64, Reg::U64, |x: u64, y: u64| {
                            x.checked_mul(y).ok_or_else(|| ee("nat overflow in *"))
                        }),
                    }
                }
                Instr::ArithF64 { op, a, b, dst } => {
                    let (lo, out) = split_dst(regs, *dst);
                    match op {
                        BinOp::Add => {
                            zip_bin!(lo, out, a, b, Reg::F64, Reg::F64, |x: f64, y: f64| {
                                Ok::<_, EngineError>(x + y)
                            })
                        }
                        BinOp::Sub => {
                            zip_bin!(lo, out, a, b, Reg::F64, Reg::F64, |x: f64, y: f64| {
                                Ok::<_, EngineError>(x - y)
                            })
                        }
                        BinOp::Mul => {
                            zip_bin!(lo, out, a, b, Reg::F64, Reg::F64, |x: f64, y: f64| {
                                Ok::<_, EngineError>(x * y)
                            })
                        }
                        BinOp::Div => {
                            zip_bin!(lo, out, a, b, Reg::F64, Reg::F64, |x: f64, y: f64| {
                                if y == 0.0 {
                                    Err(ee("division by zero"))
                                } else {
                                    Ok(x / y)
                                }
                            })
                        }
                        _ => zip_bin!(lo, out, a, b, Reg::F64, Reg::F64, |x: f64, y: f64| {
                            if y == 0.0 {
                                Err(ee("modulo by zero"))
                            } else {
                                Ok(x % y)
                            }
                        }),
                    }
                }
                Instr::CmpI64 { op, a, b, dst } => {
                    let keep = cmp_keep(*op);
                    let (lo, out) = split_dst(regs, *dst);
                    zip_bin!(lo, out, a, b, Reg::I64, Reg::Bool, |x: i64, y: i64| {
                        Ok::<_, EngineError>(keep(x.cmp(&y)))
                    });
                }
                Instr::CmpU64 { op, a, b, dst } => {
                    let keep = cmp_keep(*op);
                    let (lo, out) = split_dst(regs, *dst);
                    zip_bin!(lo, out, a, b, Reg::U64, Reg::Bool, |x: u64, y: u64| {
                        Ok::<_, EngineError>(keep(x.cmp(&y)))
                    });
                }
                Instr::CmpF64 { op, a, b, dst } => {
                    let keep = cmp_keep(*op);
                    let (lo, out) = split_dst(regs, *dst);
                    zip_bin!(lo, out, a, b, Reg::F64, Reg::Bool, |x: f64, y: f64| {
                        Ok::<_, EngineError>(keep(x.total_cmp(&y)))
                    });
                }
                Instr::CmpBool { op, a, b, dst } => {
                    let keep = cmp_keep(*op);
                    let (lo, out) = split_dst(regs, *dst);
                    zip_bin!(lo, out, a, b, Reg::Bool, Reg::Bool, |x: bool, y: bool| {
                        Ok::<_, EngineError>(keep(x.cmp(&y)))
                    });
                }
                Instr::CmpStr { op, a, b, dst } => {
                    let keep = cmp_keep(*op);
                    let (lo, out) = split_dst(regs, *dst);
                    let (Reg::Str(xa), Reg::Str(xb), Reg::Bool(o)) =
                        (&lo[*a as usize], &lo[*b as usize], out)
                    else {
                        return Err(confusion());
                    };
                    o.clear();
                    o.extend(xa.iter().zip(xb).map(|(x, y)| keep(x.cmp(y))));
                }
                Instr::AndMask { a, b, dst } => {
                    let (lo, out) = split_dst(regs, *dst);
                    zip_bin!(lo, out, a, b, Reg::Bool, Reg::Bool, |x: bool, y: bool| {
                        Ok::<_, EngineError>(x && y)
                    });
                }
                Instr::OrMask { a, b, dst } => {
                    let (lo, out) = split_dst(regs, *dst);
                    zip_bin!(lo, out, a, b, Reg::Bool, Reg::Bool, |x: bool, y: bool| {
                        Ok::<_, EngineError>(x || y)
                    });
                }
                Instr::NotMask { a, dst } => {
                    let (lo, out) = split_dst(regs, *dst);
                    let (Reg::Bool(xa), Reg::Bool(o)) = (&lo[*a as usize], out) else {
                        return Err(confusion());
                    };
                    o.clear();
                    o.extend(xa.iter().map(|x| !x));
                }
                Instr::NegI64 { a, dst } => {
                    let (lo, out) = split_dst(regs, *dst);
                    let (Reg::I64(xa), Reg::I64(o)) = (&lo[*a as usize], out) else {
                        return Err(confusion());
                    };
                    o.clear();
                    for &x in xa {
                        o.push(
                            x.checked_neg()
                                .ok_or_else(|| ee("integer overflow in negation"))?,
                        );
                    }
                }
                Instr::NegF64 { a, dst } => {
                    let (lo, out) = split_dst(regs, *dst);
                    let (Reg::F64(xa), Reg::F64(o)) = (&lo[*a as usize], out) else {
                        return Err(confusion());
                    };
                    o.clear();
                    o.extend(xa.iter().map(|x| -x));
                }
                Instr::Concat { a, b, dst } => {
                    let (lo, out) = split_dst(regs, *dst);
                    let (Reg::Str(xa), Reg::Str(xb), Reg::Str(o)) =
                        (&lo[*a as usize], &lo[*b as usize], out)
                    else {
                        return Err(confusion());
                    };
                    o.clear();
                    for (x, y) in xa.iter().zip(xb) {
                        let mut s = String::with_capacity(x.len() + y.len());
                        s.push_str(x);
                        s.push_str(y);
                        o.push(Arc::from(s));
                    }
                }
                Instr::SelectCase { cond, t, e, dst } => {
                    let (lo, out) = split_dst(regs, *dst);
                    let Reg::Bool(c) = &lo[*cond as usize] else {
                        return Err(confusion());
                    };
                    match (&lo[*t as usize], &lo[*e as usize], out) {
                        (Reg::I64(t), Reg::I64(e), Reg::I64(o)) => {
                            o.clear();
                            o.extend((0..n).map(|k| if c[k] { t[k] } else { e[k] }));
                        }
                        (Reg::U64(t), Reg::U64(e), Reg::U64(o)) => {
                            o.clear();
                            o.extend((0..n).map(|k| if c[k] { t[k] } else { e[k] }));
                        }
                        (Reg::F64(t), Reg::F64(e), Reg::F64(o)) => {
                            o.clear();
                            o.extend((0..n).map(|k| if c[k] { t[k] } else { e[k] }));
                        }
                        (Reg::Bool(t), Reg::Bool(e), Reg::Bool(o)) => {
                            o.clear();
                            o.extend((0..n).map(|k| if c[k] { t[k] } else { e[k] }));
                        }
                        (Reg::Str(t), Reg::Str(e), Reg::Str(o)) => {
                            o.clear();
                            o.extend(
                                (0..n).map(|k| if c[k] { t[k].clone() } else { e[k].clone() }),
                            );
                        }
                        (Reg::Val(t), Reg::Val(e), Reg::Val(o)) => {
                            o.clear();
                            o.extend(
                                (0..n).map(|k| if c[k] { t[k].clone() } else { e[k].clone() }),
                            );
                        }
                        _ => return Err(confusion()),
                    }
                }
                Instr::CastVal { ty, a, dst } => {
                    let (lo, out) = split_dst(regs, *dst);
                    let src = &lo[*a as usize];
                    out.clear();
                    for k in 0..n {
                        out.push(eval::cast(*ty, src.value(k))?)?;
                    }
                }
                Instr::BinVal { op, a, b, dst } => {
                    let (lo, out) = split_dst(regs, *dst);
                    let (xa, xb) = (&lo[*a as usize], &lo[*b as usize]);
                    out.clear();
                    for k in 0..n {
                        out.push(eval::bin_op(*op, xa.value(k), xb.value(k))?)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// One chain stage: a filter kernel (drops rows) or a compute
/// kernel (appends a carried column).
#[derive(Debug)]
pub(crate) enum Stage {
    Filter(Kernel),
    Compute(Kernel),
}

impl Stage {
    fn kernel(&self) -> &Kernel {
        match self {
            Stage::Filter(k) | Stage::Compute(k) => k,
        }
    }
}

/// Incremental compiler for a Select/Project/Compute/Attach chain.
/// Feed it the chain's operators bottom-up; each step returns `false`
/// when that operator cannot join the chain (expression doesn't lower,
/// type surprise, too many carries) — the caller then abandons the chain
/// and falls back to the scalar operators.
#[derive(Debug)]
pub(crate) struct ChainBuilder {
    /// Schema visible after the stages accepted so far.
    schema: Schema,
    /// Source of each visible column.
    virt: Vec<VirtSrc>,
    stages: Vec<Stage>,
    carry_tys: Vec<Ty>,
}

impl ChainBuilder {
    pub(crate) fn new(input_schema: &Schema) -> ChainBuilder {
        ChainBuilder {
            schema: input_schema.clone(),
            virt: (0..input_schema.cols().len())
                .map(|c| VirtSrc::Input(c as u32))
                .collect(),
            stages: Vec::new(),
            carry_tys: Vec::new(),
        }
    }

    /// Schema visible after the stages accepted so far (what the next
    /// operator's expressions resolve against).
    pub(crate) fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Add a Select stage. The predicate must lower to a boolean kernel.
    pub(crate) fn filter(&mut self, pred: &Expr) -> bool {
        let Some(kernel) = compile(pred, &self.schema, &self.virt) else {
            return false;
        };
        if kernel.out_ty() != Ty::Bool {
            return false;
        }
        self.stages.push(Stage::Filter(kernel));
        true
    }

    /// Add a Compute stage: evaluate `expr` and expose it as the last
    /// column of `out_schema` (the Compute node's output schema).
    pub(crate) fn compute(&mut self, expr: &Expr, out_schema: &Schema) -> bool {
        let Some(kernel) = compile(expr, &self.schema, &self.virt) else {
            return false;
        };
        let Some(&(_, ty)) = out_schema.cols().last() else {
            return false;
        };
        if kernel.out_ty() != ty || self.carry_tys.len() >= u16::MAX as usize {
            return false;
        }
        let k = self.carry_tys.len() as u16;
        self.carry_tys.push(ty);
        self.stages.push(Stage::Compute(kernel));
        self.virt.push(VirtSrc::Carry(k));
        self.schema = out_schema.clone();
        true
    }

    /// Add a Project stage: visible column `j` of `out_schema` is current
    /// visible column `idxs[j]`. Pure bookkeeping — no kernel runs.
    pub(crate) fn project(&mut self, idxs: &[usize], out_schema: &Schema) {
        self.virt = idxs.iter().map(|&i| self.virt[i].clone()).collect();
        self.schema = out_schema.clone();
    }

    /// Add an Attach stage: a constant column appended to the schema.
    pub(crate) fn attach(&mut self, v: &Value, out_schema: &Schema) {
        self.virt.push(VirtSrc::Const(v.clone()));
        self.schema = out_schema.clone();
    }

    pub(crate) fn finish(self) -> ChainProg {
        ChainProg {
            stages: self.stages,
            carry_tys: self.carry_tys,
            out: self.virt,
            out_schema: self.schema,
        }
    }
}

/// A compiled pipeline chain: the stage programs plus the mapping from
/// output columns back to chain-input columns / carries / constants.
#[derive(Debug)]
pub(crate) struct ChainProg {
    stages: Vec<Stage>,
    carry_tys: Vec<Ty>,
    out: Vec<VirtSrc>,
    out_schema: Schema,
}

impl ChainProg {
    /// Source of each output column.
    pub(crate) fn out(&self) -> &[VirtSrc] {
        &self.out
    }

    pub(crate) fn out_schema(&self) -> &Schema {
        &self.out_schema
    }

    pub(crate) fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Output columns that are all chain-input passthroughs (no carries,
    /// no constants): the zero-copy case — a selection vector plus a
    /// column remap over the input buffer reproduce the chain's output.
    pub(crate) fn pure_input_out(&self) -> Option<Vec<u32>> {
        self.out
            .iter()
            .map(|s| match s {
                VirtSrc::Input(c) => Some(*c),
                _ => None,
            })
            .collect()
    }

    /// Bind the stage kernels to `rel`'s cached column chunks, or `None`
    /// when a chunk's storage variant contradicts the schema (the caller
    /// falls back to scalar execution).
    pub(crate) fn bind<'a>(&'a self, rel: &'a Rel) -> Option<BoundChain<'a>> {
        let mut chunks = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            let k = stage.kernel();
            let cs: Vec<Arc<ColVec>> = k
                .columns()
                .iter()
                .map(|&c| rel.typed_col(rel.raw_col(c as usize)))
                .collect();
            if !k.accepts(&cs) {
                return None;
            }
            chunks.push(cs);
        }
        Some(BoundChain {
            prog: self,
            rel,
            chunks,
        })
    }
}

/// The surviving rows and carried columns a chain produced, in visible
/// order. `rows` holds **buffer** row indices of the chain input; every
/// carry register holds exactly `rows.len()` cells.
#[derive(Debug)]
pub(crate) struct StreamChunk {
    pub(crate) rows: Vec<u32>,
    pub(crate) carries: Vec<Reg>,
    pub(crate) batches: u32,
}

/// A [`ChainProg`] bound to its input relation's chunks.
pub(crate) struct BoundChain<'a> {
    prog: &'a ChainProg,
    rel: &'a Rel,
    /// Per stage, the input chunks its kernel loads.
    chunks: Vec<Vec<Arc<ColVec>>>,
}

impl BoundChain<'_> {
    /// Stream every visible row of the input through every stage in
    /// [`BATCH_ROWS`]-sized batches: each batch is filtered and computed
    /// on while cache-hot, and only survivors are accumulated. Errors
    /// surface batch-major (lowest batch first), instruction-major within
    /// a batch — the same freedom [`compile`] documents for one kernel,
    /// extended across the chain's stages.
    pub(crate) fn run(&self) -> Result<StreamChunk, EngineError> {
        let n = self.rel.len();
        let mut regs: Vec<Vec<Reg>> = self
            .prog
            .stages
            .iter()
            .map(|s| s.kernel().alloc_regs())
            .collect();
        let mut carries_b: Vec<Reg> = self.prog.carry_tys.iter().map(|&t| Reg::new(t)).collect();
        let mut out = StreamChunk {
            rows: Vec::new(),
            carries: self.prog.carry_tys.iter().map(|&t| Reg::new(t)).collect(),
            batches: 0,
        };
        let mut rows_b: Vec<u32> = Vec::with_capacity(BATCH_ROWS.min(n));
        let sel = self.rel.sel_map();
        let mut i = 0;
        while i < n {
            let hi = (i + BATCH_ROWS).min(n);
            rows_b.clear();
            // bulk-copy the selection slice (filters below compact
            // `rows_b` in place, so it cannot stay borrowed)
            match sel {
                Some(s) => rows_b.extend_from_slice(&s[i..hi]),
                None => rows_b.extend(i as u32..hi as u32),
            }
            i = hi;
            out.batches += 1;
            // carries produced so far this batch (all compacted to rows_b)
            let mut live = 0usize;
            for (si, stage) in self.prog.stages.iter().enumerate() {
                if rows_b.is_empty() {
                    break;
                }
                match stage {
                    Stage::Filter(k) => {
                        k.run(&self.chunks[si], &carries_b[..live], &rows_b, &mut regs[si])?;
                        let Reg::Bool(mask) = &regs[si][k.out_reg()] else {
                            return Err(confusion());
                        };
                        let mut w = 0usize;
                        for r in 0..rows_b.len() {
                            if mask[r] {
                                rows_b[w] = rows_b[r];
                                w += 1;
                            }
                        }
                        for c in carries_b[..live].iter_mut() {
                            c.retain_mask(mask);
                        }
                        rows_b.truncate(w);
                    }
                    Stage::Compute(k) => {
                        k.run(&self.chunks[si], &carries_b[..live], &rows_b, &mut regs[si])?;
                        let ty = self.prog.carry_tys[live];
                        carries_b[live] =
                            std::mem::replace(&mut regs[si][k.out_reg()], Reg::new(ty));
                        live += 1;
                    }
                }
            }
            if rows_b.is_empty() {
                continue; // nothing survived: carries_b[..live] hold stale
                          // cells but are rebuilt from scratch next batch
            }
            out.rows.extend_from_slice(&rows_b);
            for (k, c) in carries_b[..live].iter_mut().enumerate() {
                out.carries[k].append(c)?;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{bind, eval};
    use ferry_algebra::Plan;

    fn schema() -> Schema {
        Schema::of(&[
            ("a", Ty::Int),
            ("b", Ty::Int),
            ("d", Ty::Dbl),
            ("p", Ty::Bool),
            ("s", Ty::Str),
            ("u", Ty::Unit),
        ])
    }

    fn rel(n: i64) -> Rel {
        Rel::new(
            schema(),
            (0..n)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Int(3),
                        Value::Dbl(i as f64 / 2.0),
                        Value::Bool(i % 2 == 0),
                        Value::str(if i % 3 == 0 { "x" } else { "y" }),
                        Value::Unit,
                    ]
                })
                .collect(),
        )
    }

    /// `sch` plus one more column (a Compute node's output schema).
    fn wide(sch: &Schema, extra: (&str, Ty)) -> Schema {
        Schema::of(
            &sch.cols()
                .iter()
                .map(|(n, t)| (&**n, *t))
                .chain([extra])
                .collect::<Vec<_>>(),
        )
    }

    /// Lower `e` over `s` with every column a plain chain input.
    fn lower(e: &Expr, s: &Schema) -> Option<Kernel> {
        let virt: Vec<VirtSrc> = (0..s.len() as u32).map(VirtSrc::Input).collect();
        compile(e, s, &virt)
    }

    fn lowers(e: &Expr, s: &Schema) -> bool {
        lower(e, s).is_some()
    }

    /// `e` as a one-stage Compute chain over `r`, run over all of it.
    fn compute_chain(e: &Expr, r: &Rel) -> Result<StreamChunk, EngineError> {
        let ty = e.infer_ty(&r.schema).expect("typed expression");
        let mut b = ChainBuilder::new(&r.schema);
        assert!(
            b.compute(e, &wide(&r.schema, ("out", ty))),
            "expected a kernel for {e:?}"
        );
        let prog = b.finish();
        let bound = prog.bind(r).expect("chunks match the schema");
        bound.run()
    }

    /// Kernel result == scalar oracle result, row for row.
    fn assert_matches_oracle(e: &Expr, r: &Rel) {
        let chunk = compute_chain(e, r).unwrap();
        assert!(chunk.batches >= 1);
        assert_eq!(chunk.rows.len(), r.len());
        let bound = bind(e, &r.schema).unwrap();
        for i in 0..r.len() {
            let want = eval(&bound, &r.owned_row(i)).unwrap();
            assert_eq!(chunk.carries[0].value(i), want, "row {i} of {e:?}");
        }
    }

    #[test]
    fn arithmetic_kernels_match_oracle() {
        let r = rel(100);
        assert_matches_oracle(
            &Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, Expr::col("a"), Expr::lit(7i64)),
                Expr::col("b"),
            ),
            &r,
        );
        assert_matches_oracle(&Expr::bin(BinOp::Div, Expr::col("a"), Expr::col("b")), &r);
        assert_matches_oracle(
            &Expr::bin(BinOp::Mul, Expr::col("d"), Expr::lit(1.5f64)),
            &r,
        );
        assert_matches_oracle(&Expr::Un(UnOp::Neg, Arc::new(Expr::col("a"))), &r);
    }

    #[test]
    fn comparison_and_logic_kernels_match_oracle() {
        let r = rel(100);
        assert_matches_oracle(
            &Expr::and(
                Expr::bin(BinOp::Lt, Expr::col("a"), Expr::lit(50i64)),
                Expr::col("p"),
            ),
            &r,
        );
        assert_matches_oracle(&Expr::eq(Expr::col("s"), Expr::lit("x")), &r);
        assert_matches_oracle(
            &Expr::bin(BinOp::Ge, Expr::col("d"), Expr::lit(10.0f64)),
            &r,
        );
        // Unit comparisons route through the generic BinVal fallback
        assert_matches_oracle(&Expr::eq(Expr::col("u"), Expr::col("u")), &r);
    }

    #[test]
    fn case_concat_and_cast_match_oracle() {
        let r = rel(60);
        assert_matches_oracle(
            &Expr::case(Expr::col("p"), Expr::col("a"), Expr::col("b")),
            &r,
        );
        assert_matches_oracle(
            &Expr::bin(BinOp::Concat, Expr::col("s"), Expr::lit("!")),
            &r,
        );
        assert_matches_oracle(&Expr::Cast(Ty::Dbl, Arc::new(Expr::col("a"))), &r);
    }

    #[test]
    fn filter_chain_yields_selection_vector() {
        let r = rel(100);
        let mut b = ChainBuilder::new(&r.schema);
        assert!(b.filter(&Expr::bin(BinOp::Lt, Expr::col("a"), Expr::lit(10i64))));
        let prog = b.finish();
        let bound = prog.bind(&r).unwrap();
        let keep = bound.run().unwrap().rows;
        assert_eq!(keep, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn kernels_report_scalar_error_messages() {
        let r = rel(100);
        let div = Expr::bin(BinOp::Div, Expr::lit(1i64), Expr::col("a"));
        let err = compute_chain(&div, &r).unwrap_err();
        assert_eq!(err, EngineError::Eval("division by zero".into()));
        let ovf = Expr::bin(BinOp::Add, Expr::col("a"), Expr::lit(i64::MAX));
        let err = compute_chain(&ovf, &r).unwrap_err();
        assert_eq!(err, EngineError::Eval("integer overflow in +".into()));
    }

    #[test]
    fn short_circuit_and_fallible_case_bail_to_scalar() {
        let s = schema();
        // (a = 0) OR (1/a = 1): scalar short-circuits, kernel must refuse
        let fallible = Expr::eq(
            Expr::bin(BinOp::Div, Expr::lit(1i64), Expr::col("a")),
            Expr::lit(1i64),
        );
        let guarded = Expr::bin(
            BinOp::Or,
            Expr::eq(Expr::col("a"), Expr::lit(0i64)),
            fallible.clone(),
        );
        assert!(!lowers(&guarded, &s));
        // CASE with a fallible branch must refuse too
        let case = Expr::case(Expr::col("p"), fallible, Expr::lit(true));
        assert!(!lowers(&case, &s));
        // infallible variants of both do compile
        let ok = Expr::bin(
            BinOp::Or,
            Expr::eq(Expr::col("a"), Expr::lit(0i64)),
            Expr::col("p"),
        );
        assert!(lowers(&ok, &s));
    }

    #[test]
    fn nat_div_and_mod_bail_to_scalar() {
        let s = Schema::of(&[("n", Ty::Nat)]);
        assert!(!lowers(
            &Expr::bin(BinOp::Div, Expr::col("n"), Expr::col("n")),
            &s
        ));
        assert!(lowers(
            &Expr::bin(BinOp::Add, Expr::col("n"), Expr::col("n")),
            &s
        ));
    }

    #[test]
    fn repeated_columns_load_once() {
        let s = schema();
        let e = Expr::bin(BinOp::Mul, Expr::col("a"), Expr::col("a"));
        assert_eq!(lower(&e, &s).unwrap().columns(), &[0]);
    }

    #[test]
    fn col_map_remaps_loads_to_buffer_columns() {
        let r = rel(80);
        // a view exposing only (b, d): visible column 0 is buffer column 1,
        // visible column 1 is buffer column 2
        let view = r.with_cols(Schema::of(&[("b", Ty::Int), ("d", Ty::Dbl)]), vec![1, 2]);
        assert_matches_oracle(
            &Expr::bin(BinOp::Gt, Expr::col("d"), Expr::lit(5.0f64)),
            &view,
        );
    }

    /// filter → compute → filter → project → attach as one chain program,
    /// checked cell-for-cell against the scalar operators applied one at
    /// a time.
    #[test]
    fn chain_streams_filter_compute_project_attach() {
        let r = rel(3000); // several batches
        let mut b = ChainBuilder::new(&r.schema);
        // SELECT a < 2000
        assert!(b.filter(&Expr::bin(BinOp::Lt, Expr::col("a"), Expr::lit(2000i64))));
        // COMPUTE y = a * 2 + b
        let y = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::col("a"), Expr::lit(2i64)),
            Expr::col("b"),
        );
        assert!(b.compute(&y, &wide(&r.schema, ("y", Ty::Int))));
        // SELECT y % 2 = 1 (a*2+3 is always odd: keeps everything — then
        // a tighter one) and SELECT y < 1003 (drops most rows)
        assert!(b.filter(&Expr::eq(
            Expr::bin(BinOp::Mod, Expr::col("y"), Expr::lit(2i64)),
            Expr::lit(1i64)
        )));
        assert!(b.filter(&Expr::bin(BinOp::Lt, Expr::col("y"), Expr::lit(1003i64))));
        // PROJECT (y, s) then ATTACH tag = "t"
        let s2 = Schema::of(&[("y", Ty::Int), ("s", Ty::Str)]);
        b.project(&[6, 4], &s2);
        let s3 = Schema::of(&[("y", Ty::Int), ("s", Ty::Str), ("tag", Ty::Str)]);
        b.attach(&Value::str("t"), &s3);
        let prog = b.finish();
        assert_eq!(prog.stage_count(), 4);
        assert!(prog.pure_input_out().is_none()); // y is carried, tag is const
        let bound = prog.bind(&r).unwrap();
        let chunk = bound.run().unwrap();
        assert_eq!(chunk.batches, 3);
        // oracle: rows 0..2000 with y = 2a+3, keep y < 1003 → a < 500
        assert_eq!(chunk.rows.len(), 500);
        assert_eq!(chunk.carries.len(), 1);
        assert_eq!(chunk.carries[0].len(), 500);
        for (p, &row) in chunk.rows.iter().enumerate() {
            assert_eq!(row as usize, p);
            assert_eq!(chunk.carries[0].value(p), Value::Int(2 * p as i64 + 3));
        }
        // output columns resolve: y → carry 0, s → input 4, tag → const
        match prog.out() {
            [VirtSrc::Carry(0), VirtSrc::Input(4), VirtSrc::Const(v)] => {
                assert_eq!(*v, Value::str("t"));
            }
            other => panic!("unexpected out mapping {other:?}"),
        }
        assert_eq!(prog.out_schema().cols().len(), 3);
    }

    /// A chain over a narrowed view loads through the view's column remap.
    #[test]
    fn chain_binds_through_column_remaps() {
        let r = rel(100);
        let view = r.with_cols(Schema::of(&[("b", Ty::Int), ("d", Ty::Dbl)]), vec![1, 2]);
        let mut b = ChainBuilder::new(&view.schema);
        assert!(b.filter(&Expr::bin(BinOp::Gt, Expr::col("d"), Expr::lit(25.0f64))));
        let prog = b.finish();
        assert_eq!(prog.pure_input_out(), Some(vec![0, 1]));
        let chunk = prog.bind(&view).unwrap().run().unwrap();
        // d = i/2 > 25 → i > 50
        assert_eq!(chunk.rows, (51..100).collect::<Vec<u32>>());
    }

    /// Chain errors keep the oracle's message and honor earlier filters:
    /// rows a filter dropped must never reach a later fallible compute.
    #[test]
    fn chain_error_semantics_respect_filters() {
        let r = rel(100);
        // guarded: a != 0 filtered first, then 1/a computes cleanly
        let mut b = ChainBuilder::new(&r.schema);
        assert!(b.filter(&Expr::bin(BinOp::Gt, Expr::col("a"), Expr::lit(0i64))));
        let inv = Expr::bin(BinOp::Div, Expr::lit(100i64), Expr::col("a"));
        assert!(b.compute(&inv, &wide(&r.schema, ("inv", Ty::Int))));
        let prog = b.finish();
        let chunk = prog.bind(&r).unwrap().run().unwrap();
        assert_eq!(chunk.rows.len(), 99);
        assert_eq!(chunk.carries[0].value(0), Value::Int(100));
        // unguarded: the zero row reaches the divide and raises the
        // scalar oracle's message
        let mut b = ChainBuilder::new(&r.schema);
        assert!(b.compute(&inv, &wide(&r.schema, ("inv", Ty::Int))));
        let prog = b.finish();
        let err = prog.bind(&r).unwrap().run().unwrap_err();
        assert_eq!(err, EngineError::Eval("division by zero".into()));
    }

    /// Compute stages that don't lower refuse fusion instead of lying.
    #[test]
    fn chain_builder_bails_on_unvectorizable_stages() {
        let r = rel(10);
        let mut b = ChainBuilder::new(&r.schema);
        // OR with fallible RHS cannot batch-evaluate
        let fallible = Expr::eq(
            Expr::bin(BinOp::Div, Expr::lit(1i64), Expr::col("a")),
            Expr::lit(1i64),
        );
        assert!(!b.filter(&Expr::bin(BinOp::Or, Expr::col("p"), fallible.clone())));
        // non-bool filter refuses
        assert!(!b.filter(&Expr::col("a")));
        // compute of a non-lowering expression (fallible CASE branch)
        // refuses
        let case = Expr::case(
            Expr::col("p"),
            Expr::bin(BinOp::Div, Expr::lit(1i64), Expr::col("a")),
            Expr::lit(1i64),
        );
        let s1 = Schema::of(&[("x", Ty::Int)]);
        assert!(!b.compute(&case, &s1));
        // the builder is still usable after refusals
        assert!(b.filter(&Expr::col("p")));
    }

    /// The `VecMode` gate sits in front of the chain: `Off` runs a lone
    /// Select on the scalar operator, `Force` as a chain of one.
    #[test]
    fn vec_mode_off_runs_no_chain() {
        let mut plan = Plan::new();
        let l = plan.lit(schema(), rel(200).rows().into_owned());
        let root = plan.select(l, Expr::col("p"));
        for (vec, batches) in [(VecMode::Off, 0), (VecMode::Force, 1)] {
            let db = crate::Database::new();
            db.set_par_config(ParConfig { vec });
            assert_eq!(db.execute(&plan, root).unwrap().len(), 100);
            assert_eq!(db.stats().kernel_batches, batches, "{vec:?}");
        }
    }

    #[test]
    fn vec_mode_gates() {
        let auto = ParConfig::default();
        assert!(auto.vectorize(100_000));
        assert!(!auto.vectorize(8));
        let off = ParConfig { vec: VecMode::Off };
        assert!(!off.vectorize(100_000));
        let force = ParConfig {
            vec: VecMode::Force,
        };
        assert!(force.vectorize(1));
        assert!(!force.vectorize(0));
    }
}
