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
//! A kernel is one plan node's expression: a `Select`'s predicate
//! ([`filter`]) or a `Compute`'s value ([`compute`]), run over the
//! node's input batch by batch. `crate::exec` evaluates every plan node
//! on its own, so each node's kernel runs over its whole input before the
//! next node starts. Under [`VecMode::On`] every `Select` and `Compute`
//! runs this way, whatever its input size; the scalar operators run only
//! under [`VecMode::Off`], as the differential oracle.
//!
//! ## Semantics contract
//!
//! The kernels are *observably identical* to the scalar oracle — same
//! values, same errors (message strings included) — with one deliberate
//! freedom within one kernel: when several rows fail, the reported error
//! may differ (scalar walks rows outer-most, kernels walk instructions
//! outer-most). Across nodes there is none: a node fails before the node
//! above it runs, as in the oracle. [`compile`] refuses no well-typed
//! expression; the scalar behaviours a straight-line batch program does
//! not have on its own follow the **guard rule**:
//!
//! - Scalar `AND`/`OR` evaluate their right side only on rows the left
//!   side did not decide, and `CASE` evaluates only the taken branch. A
//!   kernel runs every instruction over the whole batch, so a right side
//!   or a branch is compiled under a *guard*: the mask of the rows that
//!   reach it (left side true for `AND`, false for `OR`, condition true
//!   or false for a branch), and-ed with any enclosing guard. An
//!   instruction that can raise raises only for a row its guard admits;
//!   for any other row it writes a placeholder that nothing selects. A
//!   region builds its mask once, and only if it holds such an
//!   instruction.
//! - `Nat` division/modulo are not defined by the scalar oracle: they
//!   lower to the element-wise oracle instruction, which raises the
//!   oracle's own "not applicable" error for every row it admits.
//! - An unbound parameter is [`EngineError::UnboundParam`] from
//!   [`compile`], as the oracle's `bind` reports before it touches a row.
//!
//! `infer_schema` rejects an ill-typed expression before dispatch; one
//! that reached a kernel anyway would fail with the internal
//! register-confusion error when a batch runs, never fall back.
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

/// Execution-path selection. Production runs one implementation per
/// operator: a kernel for `Select` and `Compute`, column picks for
/// `Project` and `Attach`, and the typed sinks (joins, windows, group-by,
/// distinct, difference, serialize). The row-at-a-time `Bound`
/// interpretation is kept as the differential oracle. A `Database` carries
/// one (`Database::set_vec_mode`). See `DESIGN.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VecMode {
    /// Kernels and typed sinks, at every input size.
    #[default]
    On,
    /// The scalar oracle: every node through its scalar operator. For the
    /// differential suite.
    Off,
}

fn ee(msg: impl Into<String>) -> EngineError {
    EngineError::Eval(msg.into())
}

/// An expression `infer_schema` rejects reached the kernel compiler.
fn mistyped(e: &Expr) -> EngineError {
    ee(format!(
        "internal: ill-typed expression {e} reached the kernel compiler"
    ))
}

/// A batch register: one column of intermediate results, type-specialized
/// like the chunks it is computed from. `Val` is the totality fallback
/// (unit columns and other slow domains).
#[derive(Debug)]
enum Reg {
    I64(Vec<i64>),
    U64(Vec<u64>),
    F64(Vec<f64>),
    Bool(Vec<bool>),
    Str(Vec<Arc<str>>),
    Val(Vec<Value>),
}

impl Reg {
    fn new(ty: Ty) -> Reg {
        match ty {
            Ty::Int => Reg::I64(Vec::new()),
            Ty::Nat => Reg::U64(Vec::new()),
            Ty::Dbl => Reg::F64(Vec::new()),
            Ty::Bool => Reg::Bool(Vec::new()),
            Ty::Str => Reg::Str(Vec::new()),
            Ty::Unit => Reg::Val(Vec::new()),
        }
    }

    /// The register as a column: typed registers move, strings are
    /// dictionary-encoded.
    fn into_col(self) -> ColVec {
        match self {
            Reg::I64(v) => ColVec::Int(v),
            Reg::U64(v) => ColVec::Nat(v),
            Reg::F64(v) => ColVec::Dbl(v),
            Reg::Bool(v) => ColVec::Bool(v),
            Reg::Str(v) => ColVec::from_strs(v),
            Reg::Val(v) => ColVec::Other(v),
        }
    }

    /// Cell `k` as an owned [`Value`].
    fn value(&self, k: usize) -> Value {
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

    /// Push the placeholder a failing row outside its guard writes (see
    /// the guard rule in the module docs): nothing selects it.
    fn push_placeholder(&mut self) {
        match self {
            Reg::I64(o) => o.push(0),
            Reg::U64(o) => o.push(0),
            Reg::F64(o) => o.push(0.0),
            Reg::Bool(o) => o.push(false),
            Reg::Str(o) => o.push(Arc::from("")),
            Reg::Val(o) => o.push(Value::Unit),
        }
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

    /// Move all cells of `src` (same variant) onto the end of `self`.
    fn append(&mut self, src: &mut Reg) -> Result<(), EngineError> {
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
}

/// One kernel instruction. Operands `a`/`b`/`cond`/… and the admitted
/// mask always index registers allocated *before* `dst` (the compiler
/// allocates the result register after its operands and its guard),
/// which the interpreter exploits to split borrows.
#[derive(Debug, Clone)]
enum Instr {
    /// Gather input column `col` at the batch's column rows into `dst`.
    Load {
        col: u32,
        dst: u32,
    },
    /// Broadcast a constant across the batch.
    Splat {
        v: Value,
        dst: u32,
    },
    /// `dst = parent && cond == when`: the row mask of a guarded region
    /// (`parent` is the enclosing region's mask, `None` for every row).
    Guard {
        parent: Option<u32>,
        cond: u32,
        when: bool,
        dst: u32,
    },
    /// From here on, an instruction that can raise does so only for the
    /// rows of mask register `mask` (`None`: every row) and writes a
    /// placeholder for the others.
    Admit {
        mask: Option<u32>,
    },
    /// Checked `Int` arithmetic with the scalar oracle's semantics
    /// (including `wrapping_div`/`wrapping_rem` after the zero check).
    ArithI64 {
        op: BinOp,
        a: u32,
        b: u32,
        dst: u32,
    },
    /// Checked `Nat` arithmetic (`Add`/`Sub`/`Mul` only).
    ArithU64 {
        op: BinOp,
        a: u32,
        b: u32,
        dst: u32,
    },
    /// `Dbl` arithmetic; `Div`/`Mod` still error on a zero divisor.
    ArithF64 {
        op: BinOp,
        a: u32,
        b: u32,
        dst: u32,
    },
    CmpI64 {
        op: BinOp,
        a: u32,
        b: u32,
        dst: u32,
    },
    CmpU64 {
        op: BinOp,
        a: u32,
        b: u32,
        dst: u32,
    },
    /// `total_cmp` ordering — `Value` comparison semantics, not IEEE.
    CmpF64 {
        op: BinOp,
        a: u32,
        b: u32,
        dst: u32,
    },
    CmpBool {
        op: BinOp,
        a: u32,
        b: u32,
        dst: u32,
    },
    CmpStr {
        op: BinOp,
        a: u32,
        b: u32,
        dst: u32,
    },
    AndMask {
        a: u32,
        b: u32,
        dst: u32,
    },
    OrMask {
        a: u32,
        b: u32,
        dst: u32,
    },
    NotMask {
        a: u32,
        dst: u32,
    },
    NegI64 {
        a: u32,
        dst: u32,
    },
    NegF64 {
        a: u32,
        dst: u32,
    },
    Concat {
        a: u32,
        b: u32,
        dst: u32,
    },
    /// `cond ? t : e` element-wise; each branch was computed under its
    /// own guard.
    SelectCase {
        cond: u32,
        t: u32,
        e: u32,
        dst: u32,
    },
    /// Element-wise cast through the scalar oracle.
    CastVal {
        ty: Ty,
        a: u32,
        dst: u32,
    },
    /// Element-wise `bin_op` through the scalar oracle (unit comparisons,
    /// `Nat` division and modulo).
    BinVal {
        op: BinOp,
        a: u32,
        b: u32,
        dst: u32,
    },
}

/// A compiled kernel program: straight-line instructions over a register
/// file.
#[derive(Debug, Clone)]
struct Kernel {
    instrs: Vec<Instr>,
    /// Register allocation shape (`reg_tys[r]` is register `r`'s type).
    reg_tys: Vec<Ty>,
    /// Register holding the expression result.
    out: u32,
}

/// A guarded region of the expression being compiled: the rows where
/// register `cond` equals `when`, within the enclosing region. `mask` is
/// the region's row mask once an instruction that can raise needed it.
#[derive(Debug, Clone, Copy)]
struct Region {
    cond: u32,
    when: bool,
    mask: Option<u32>,
}

struct Compiler<'a> {
    schema: &'a Schema,
    instrs: Vec<Instr>,
    reg_tys: Vec<Ty>,
    /// input column → register already holding it.
    loaded: HashMap<u32, (u32, Ty)>,
    /// The guarded regions around the code being compiled, outermost
    /// first.
    regions: Vec<Region>,
    /// The mask the last `Admit` emitted put in force.
    admitted: Option<u32>,
}

impl Compiler<'_> {
    fn reg(&mut self, ty: Ty) -> u32 {
        self.reg_tys.push(ty);
        (self.reg_tys.len() - 1) as u32
    }

    /// Allocate a `ty` result register and emit `make(dst)`. An
    /// instruction that `can_raise` is admitted under the innermost
    /// region's mask, built before `dst` so it precedes it.
    fn emit(&mut self, ty: Ty, can_raise: bool, make: impl FnOnce(u32) -> Instr) -> (u32, Ty) {
        if can_raise {
            let mask = self.mask(self.regions.len());
            if mask != self.admitted {
                self.instrs.push(Instr::Admit { mask });
                self.admitted = mask;
            }
        }
        let dst = self.reg(ty);
        self.instrs.push(make(dst));
        (dst, ty)
    }

    /// The row mask of the `depth` outermost regions (`None` at depth 0:
    /// every row), emitting the `Guard` instructions it still lacks. A
    /// mask's operands were computed before its region began, so
    /// emitting it mid-region is sound.
    fn mask(&mut self, depth: usize) -> Option<u32> {
        let region = *self.regions.get(depth.checked_sub(1)?)?;
        if region.mask.is_some() {
            return region.mask;
        }
        let parent = self.mask(depth - 1);
        let (dst, _) = self.emit(Ty::Bool, false, |dst| Instr::Guard {
            parent,
            cond: region.cond,
            when: region.when,
            dst,
        });
        self.regions[depth - 1].mask = Some(dst);
        Some(dst)
    }

    /// Compile `e` for the rows where register `cond` equals `when`.
    fn guarded(&mut self, cond: u32, when: bool, e: &Expr) -> Result<(u32, Ty), EngineError> {
        self.regions.push(Region {
            cond,
            when,
            mask: None,
        });
        let out = self.compile(e);
        self.regions.pop();
        out
    }

    /// Emit (or reuse) a load of input column `col` typed `ty`.
    fn load_col(&mut self, col: u32, ty: Ty) -> (u32, Ty) {
        if let Some(&hit) = self.loaded.get(&col) {
            return hit;
        }
        let hit = self.emit(ty, false, |dst| Instr::Load { col, dst });
        self.loaded.insert(col, hit);
        hit
    }

    fn compile(&mut self, e: &Expr) -> Result<(u32, Ty), EngineError> {
        match e {
            Expr::Col(name) => {
                let idx = self
                    .schema
                    .index_of(name)
                    .ok_or_else(|| EngineError::NoSuchColumn {
                        col: name.to_string(),
                        schema: self.schema.to_string(),
                    })?;
                let ty = self.schema.cols()[idx].1;
                Ok(self.load_col(idx as u32, ty))
            }
            Expr::Const(v) => {
                Ok(self.emit(v.ty(), false, |dst| Instr::Splat { v: v.clone(), dst }))
            }
            Expr::Param(slot, _) => Err(EngineError::UnboundParam(*slot)),
            Expr::Bin(op, l, r) => self.compile_bin(*op, l, r),
            Expr::Un(UnOp::Not, x) => {
                let (a, _) = self.compile(x)?;
                Ok(self.emit(Ty::Bool, false, |dst| Instr::NotMask { a, dst }))
            }
            Expr::Un(UnOp::Neg, x) => {
                let (a, ty) = self.compile(x)?;
                match ty {
                    Ty::Int => Ok(self.emit(ty, true, |dst| Instr::NegI64 { a, dst })),
                    Ty::Dbl => Ok(self.emit(ty, false, |dst| Instr::NegF64 { a, dst })),
                    _ => Err(mistyped(e)),
                }
            }
            Expr::Case(c, t, f) => {
                let (cond, _) = self.compile(c)?;
                // each branch runs only on the rows that take it
                let (t, ty) = self.guarded(cond, true, t)?;
                let (f, _) = self.guarded(cond, false, f)?;
                Ok(self.emit(ty, false, |dst| Instr::SelectCase { cond, t, e: f, dst }))
            }
            Expr::Cast(ty, x) => {
                let (a, et) = self.compile(x)?;
                if et == *ty {
                    return Ok((a, et)); // identity cast: reuse the register
                }
                let ty = *ty;
                Ok(self.emit(ty, true, |dst| Instr::CastVal { ty, a, dst }))
            }
        }
    }

    fn compile_bin(&mut self, op: BinOp, l: &Expr, r: &Expr) -> Result<(u32, Ty), EngineError> {
        let (a, lt) = self.compile(l)?;
        if op.is_logic() {
            // the right side runs only on the rows the left side did not
            // decide: true ones for AND, false ones for OR
            let (b, _) = self.guarded(a, op == BinOp::And, r)?;
            return Ok(self.emit(Ty::Bool, false, |dst| match op {
                BinOp::And => Instr::AndMask { a, b, dst },
                _ => Instr::OrMask { a, b, dst },
            }));
        }
        let (b, _) = self.compile(r)?;
        if op.is_cmp() {
            return Ok(self.emit(Ty::Bool, false, |dst| match lt {
                Ty::Int => Instr::CmpI64 { op, a, b, dst },
                Ty::Nat => Instr::CmpU64 { op, a, b, dst },
                Ty::Dbl => Instr::CmpF64 { op, a, b, dst },
                Ty::Bool => Instr::CmpBool { op, a, b, dst },
                Ty::Str => Instr::CmpStr { op, a, b, dst },
                Ty::Unit => Instr::BinVal { op, a, b, dst },
            }));
        }
        if op == BinOp::Concat {
            return Ok(self.emit(Ty::Str, false, |dst| Instr::Concat { a, b, dst }));
        }
        debug_assert!(op.is_arith());
        let can_raise = lt != Ty::Dbl || matches!(op, BinOp::Div | BinOp::Mod);
        Ok(self.emit(lt, can_raise, |dst| match lt {
            Ty::Int => Instr::ArithI64 { op, a, b, dst },
            // the oracle defines no Nat division: it raises its own error
            Ty::Nat if matches!(op, BinOp::Div | BinOp::Mod) => Instr::BinVal { op, a, b, dst },
            Ty::Nat => Instr::ArithU64 { op, a, b, dst },
            _ => Instr::ArithF64 { op, a, b, dst },
        }))
    }
}

/// Lower `expr`, typed against its input's `schema`, to a kernel
/// program over that input's columns. Every well-typed
/// expression compiles; the errors are the oracle's `bind` errors (a
/// missing column, an unbound parameter).
fn compile(expr: &Expr, schema: &Schema) -> Result<Kernel, EngineError> {
    let mut c = Compiler {
        schema,
        instrs: Vec::new(),
        reg_tys: Vec::new(),
        loaded: HashMap::new(),
        regions: Vec::new(),
        admitted: None,
    };
    let (out, _) = c.compile(expr)?;
    Ok(Kernel {
        instrs: c.instrs,
        reg_tys: c.reg_tys,
        out,
    })
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
fn split_dst(regs: &mut [Reg], dst: u32) -> (&[Reg], &mut Reg) {
    let (lo, hi) = regs.split_at_mut(dst as usize);
    (lo, &mut hi[0])
}

fn confusion() -> EngineError {
    ee("kernel register type confusion")
}

/// The row mask in guard register `g` (`None`: every row).
fn mask(lo: &[Reg], g: Option<u32>) -> Result<Option<&[bool]>, EngineError> {
    match g.map(|g| &lo[g as usize]) {
        None => Ok(None),
        Some(Reg::Bool(m)) => Ok(Some(m)),
        Some(_) => Err(confusion()),
    }
}

/// Does the guard admit row `k`? Only an admitted row may raise.
#[inline]
fn admits(guard: Option<&[bool]>, k: usize) -> bool {
    guard.is_none_or(|g| g[k])
}

/// `o[k] = if c[k] { t[k] } else { e[k] }`.
fn pick<T: Clone>(c: &[bool], t: &[T], e: &[T], o: &mut Vec<T>) {
    o.clear();
    o.extend(
        c.iter()
            .zip(t.iter().zip(e))
            .map(|(&c, (t, e))| if c { t } else { e }.clone()),
    );
}

/// `o[k] = f(a[k], b[k])` for an `f` that cannot fail.
macro_rules! zip_map {
    ($lo:expr, $out:expr, $a:expr, $b:expr, $in_pat:path, $out_pat:path, $f:expr) => {{
        let ($in_pat(xa), $in_pat(xb), $out_pat(o)) =
            (&$lo[*$a as usize], &$lo[*$b as usize], $out)
        else {
            return Err(confusion());
        };
        o.clear();
        o.extend(xa.iter().zip(xb).map(|(x, y)| $f(*x, *y)));
    }};
}

/// `o[k] = f(a[k], b[k])` for a checked `f`: a failing row raises if the
/// guard admits it and writes the placeholder `T::default()` otherwise.
macro_rules! zip_checked {
    ($lo:expr, $out:expr, $a:expr, $b:expr, $guard:expr, $pat:path, $f:expr) => {{
        let guard = mask($lo, $guard)?;
        let ($pat(xa), $pat(xb), $pat(o)) = (&$lo[*$a as usize], &$lo[*$b as usize], $out) else {
            return Err(confusion());
        };
        o.clear();
        for (k, (x, y)) in xa.iter().zip(xb).enumerate() {
            o.push(match $f(*x, *y) {
                Ok(v) => v,
                Err(e) if admits(guard, k) => return Err(e),
                Err(_) => Default::default(),
            });
        }
    }};
}

impl Kernel {
    /// Type of the result register.
    fn out_ty(&self) -> Ty {
        self.reg_tys[self.out as usize]
    }

    /// Run the program over every visible row of `rel`, in
    /// [`BATCH_ROWS`]-row batches, handing `each` a batch's column rows and
    /// its result register. Returns the number of batches run.
    fn stream(
        &self,
        rel: &Rel,
        mut each: impl FnMut(&[u32], &mut Reg) -> Result<(), EngineError>,
    ) -> Result<u32, EngineError> {
        let n = rel.len();
        let mut regs: Vec<Reg> = self.reg_tys.iter().map(|&t| Reg::new(t)).collect();
        let mut rows: Vec<u32> = Vec::with_capacity(BATCH_ROWS.min(n));
        let mut batches = 0;
        for lo in (0..n).step_by(BATCH_ROWS) {
            let hi = (lo + BATCH_ROWS).min(n);
            rows.clear();
            match rel.sel() {
                Some(s) => rows.extend_from_slice(&s[lo..hi]),
                None => rows.extend(lo as u32..hi as u32),
            }
            self.run(rel, &rows, &mut regs)?;
            each(&rows, &mut regs[self.out as usize])?;
            batches += 1;
        }
        Ok(batches)
    }

    /// Execute the program for one batch of `rel`: `rows` holds the
    /// batch's **column** row indices. On success, register `self.out`
    /// holds one result per row.
    fn run(&self, rel: &Rel, rows: &[u32], regs: &mut [Reg]) -> Result<(), EngineError> {
        let n = rows.len();
        let mut admitted = None;
        for instr in &self.instrs {
            match instr {
                Instr::Admit { mask } => admitted = *mask,
                Instr::Load { col, dst } => {
                    let chunk = rel.col(*col as usize).as_ref();
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
                Instr::Guard {
                    parent,
                    cond,
                    when,
                    dst,
                } => {
                    let (lo, out) = split_dst(regs, *dst);
                    let parent = mask(lo, *parent)?;
                    let (Reg::Bool(c), Reg::Bool(o)) = (&lo[*cond as usize], out) else {
                        return Err(confusion());
                    };
                    o.clear();
                    o.extend(
                        c.iter()
                            .enumerate()
                            .map(|(k, &c)| c == *when && admits(parent, k)),
                    );
                }
                Instr::ArithI64 { op, a, b, dst } => {
                    let (lo, out) = split_dst(regs, *dst);
                    match op {
                        BinOp::Add => {
                            zip_checked!(lo, out, a, b, admitted, Reg::I64, |x: i64, y: i64| {
                                x.checked_add(y).ok_or_else(|| ee("integer overflow in +"))
                            })
                        }
                        BinOp::Sub => {
                            zip_checked!(lo, out, a, b, admitted, Reg::I64, |x: i64, y: i64| {
                                x.checked_sub(y).ok_or_else(|| ee("integer overflow in -"))
                            })
                        }
                        BinOp::Mul => {
                            zip_checked!(lo, out, a, b, admitted, Reg::I64, |x: i64, y: i64| {
                                x.checked_mul(y).ok_or_else(|| ee("integer overflow in *"))
                            })
                        }
                        BinOp::Div => {
                            zip_checked!(lo, out, a, b, admitted, Reg::I64, |x: i64, y: i64| {
                                if y == 0 {
                                    Err(ee("division by zero"))
                                } else {
                                    // scalar-oracle quirk: i64::MIN / -1 wraps
                                    Ok(x.wrapping_div(y))
                                }
                            })
                        }
                        _ => zip_checked!(lo, out, a, b, admitted, Reg::I64, |x: i64, y: i64| {
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
                            zip_checked!(lo, out, a, b, admitted, Reg::U64, |x: u64, y: u64| {
                                x.checked_add(y).ok_or_else(|| ee("nat overflow in +"))
                            })
                        }
                        BinOp::Sub => {
                            zip_checked!(lo, out, a, b, admitted, Reg::U64, |x: u64, y: u64| {
                                x.checked_sub(y).ok_or_else(|| ee("nat underflow in -"))
                            })
                        }
                        _ => zip_checked!(lo, out, a, b, admitted, Reg::U64, |x: u64, y: u64| {
                            x.checked_mul(y).ok_or_else(|| ee("nat overflow in *"))
                        }),
                    }
                }
                Instr::ArithF64 { op, a, b, dst } => {
                    let (lo, out) = split_dst(regs, *dst);
                    match op {
                        BinOp::Add => zip_map!(lo, out, a, b, Reg::F64, Reg::F64, |x, y| x + y),
                        BinOp::Sub => zip_map!(lo, out, a, b, Reg::F64, Reg::F64, |x, y| x - y),
                        BinOp::Mul => zip_map!(lo, out, a, b, Reg::F64, Reg::F64, |x, y| x * y),
                        BinOp::Div => {
                            zip_checked!(lo, out, a, b, admitted, Reg::F64, |x: f64, y: f64| {
                                if y == 0.0 {
                                    Err(ee("division by zero"))
                                } else {
                                    Ok(x / y)
                                }
                            })
                        }
                        _ => zip_checked!(lo, out, a, b, admitted, Reg::F64, |x: f64, y: f64| {
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
                    zip_map!(lo, out, a, b, Reg::I64, Reg::Bool, |x: i64, y: i64| keep(
                        x.cmp(&y)
                    ));
                }
                Instr::CmpU64 { op, a, b, dst } => {
                    let keep = cmp_keep(*op);
                    let (lo, out) = split_dst(regs, *dst);
                    zip_map!(lo, out, a, b, Reg::U64, Reg::Bool, |x: u64, y: u64| keep(
                        x.cmp(&y)
                    ));
                }
                Instr::CmpF64 { op, a, b, dst } => {
                    let keep = cmp_keep(*op);
                    let (lo, out) = split_dst(regs, *dst);
                    zip_map!(lo, out, a, b, Reg::F64, Reg::Bool, |x: f64, y: f64| keep(
                        x.total_cmp(&y)
                    ));
                }
                Instr::CmpBool { op, a, b, dst } => {
                    let keep = cmp_keep(*op);
                    let (lo, out) = split_dst(regs, *dst);
                    zip_map!(
                        lo,
                        out,
                        a,
                        b,
                        Reg::Bool,
                        Reg::Bool,
                        |x: bool, y: bool| keep(x.cmp(&y))
                    );
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
                    zip_map!(lo, out, a, b, Reg::Bool, Reg::Bool, |x, y| x && y);
                }
                Instr::OrMask { a, b, dst } => {
                    let (lo, out) = split_dst(regs, *dst);
                    zip_map!(lo, out, a, b, Reg::Bool, Reg::Bool, |x, y| x || y);
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
                    let guard = mask(lo, admitted)?;
                    let (Reg::I64(xa), Reg::I64(o)) = (&lo[*a as usize], out) else {
                        return Err(confusion());
                    };
                    o.clear();
                    for (k, &x) in xa.iter().enumerate() {
                        o.push(match x.checked_neg() {
                            Some(v) => v,
                            None if admits(guard, k) => {
                                return Err(ee("integer overflow in negation"))
                            }
                            None => 0,
                        });
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
                        (Reg::I64(t), Reg::I64(e), Reg::I64(o)) => pick(c, t, e, o),
                        (Reg::U64(t), Reg::U64(e), Reg::U64(o)) => pick(c, t, e, o),
                        (Reg::F64(t), Reg::F64(e), Reg::F64(o)) => pick(c, t, e, o),
                        (Reg::Bool(t), Reg::Bool(e), Reg::Bool(o)) => pick(c, t, e, o),
                        (Reg::Str(t), Reg::Str(e), Reg::Str(o)) => pick(c, t, e, o),
                        (Reg::Val(t), Reg::Val(e), Reg::Val(o)) => pick(c, t, e, o),
                        _ => return Err(confusion()),
                    }
                }
                Instr::CastVal { ty, a, dst } => {
                    let (lo, out) = split_dst(regs, *dst);
                    let guard = mask(lo, admitted)?;
                    let src = &lo[*a as usize];
                    out.clear();
                    for k in 0..n {
                        match eval::cast(*ty, src.value(k)) {
                            Ok(v) => out.push(v)?,
                            Err(e) if admits(guard, k) => return Err(e),
                            Err(_) => out.push_placeholder(),
                        }
                    }
                }
                Instr::BinVal { op, a, b, dst } => {
                    let (lo, out) = split_dst(regs, *dst);
                    let guard = mask(lo, admitted)?;
                    let (xa, xb) = (&lo[*a as usize], &lo[*b as usize]);
                    out.clear();
                    for k in 0..n {
                        match eval::bin_op(*op, xa.value(k), xb.value(k)) {
                            Ok(v) => out.push(v)?,
                            Err(e) if admits(guard, k) => return Err(e),
                            Err(_) => out.push_placeholder(),
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// A `Select`'s kernel: the column rows of `rel`'s visible rows where
/// `pred` holds, in visible order, and the batches it ran.
pub(crate) fn filter(pred: &Expr, rel: &Rel) -> Result<(Vec<u32>, u32), EngineError> {
    let kernel = compile(pred, &rel.schema)?;
    let mut keep = Vec::new();
    let batches = kernel.stream(rel, |rows, out| {
        let Reg::Bool(mask) = out else {
            return Err(confusion());
        };
        keep.extend(
            rows.iter()
                .zip(mask.iter())
                .filter(|(_, &m)| m)
                .map(|(&r, _)| r),
        );
        Ok(())
    })?;
    Ok((keep, batches))
}

/// A `Compute`'s kernel: `expr` at every visible row of `rel`, as one
/// column of type `ty` (the node's new column), and the batches it ran.
pub(crate) fn compute(expr: &Expr, rel: &Rel, ty: Ty) -> Result<(ColVec, u32), EngineError> {
    let kernel = compile(expr, &rel.schema)?;
    if kernel.out_ty() != ty {
        return Err(mistyped(expr));
    }
    let mut col = Reg::new(ty);
    let batches = kernel.stream(rel, |_, out| col.append(out))?;
    Ok((col.into_col(), batches))
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

    /// `e` over every row of `r` by the kernel, or its error.
    fn kernel_column(e: &Expr, r: &Rel) -> Result<Vec<Value>, EngineError> {
        let ty = e.infer_ty(&r.schema).expect("typed expression");
        let (col, _) = compute(e, r, ty)?;
        assert_eq!(col.len(), r.len());
        Ok((0..r.len()).map(|i| col.value(i)).collect())
    }

    /// `e` over every row of `r` by the scalar oracle, or its first error.
    fn oracle_column(e: &Expr, r: &Rel) -> Result<Vec<Value>, EngineError> {
        let bound = bind(e, &r.schema)?;
        (0..r.len()).map(|i| eval(&bound, &r.row(i))).collect()
    }

    /// Kernel result == scalar oracle result, row for row (errors by
    /// message).
    fn assert_agrees(e: &Expr, r: &Rel) {
        assert_eq!(kernel_column(e, r), oracle_column(e, r), "{e}");
    }

    /// … and neither fails.
    fn assert_matches_oracle(e: &Expr, r: &Rel) {
        assert!(oracle_column(e, r).is_ok(), "{e} fails in the oracle");
        assert_agrees(e, r);
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
    fn filter_yields_selection_vector() {
        let r = rel(3000); // several batches
        let lt = Expr::bin(BinOp::Lt, Expr::col("a"), Expr::lit(10i64));
        let (keep, batches) = filter(&lt, &r).unwrap();
        assert_eq!(keep, (0..10).collect::<Vec<u32>>());
        assert_eq!(batches, 3);
    }

    #[test]
    fn kernels_report_scalar_error_messages() {
        let r = rel(100);
        let div = Expr::bin(BinOp::Div, Expr::lit(1i64), Expr::col("a"));
        let err = kernel_column(&div, &r).unwrap_err();
        assert_eq!(err, EngineError::Eval("division by zero".into()));
        let ovf = Expr::bin(BinOp::Add, Expr::col("a"), Expr::lit(i64::MAX));
        let err = kernel_column(&ovf, &r).unwrap_err();
        assert_eq!(err, EngineError::Eval("integer overflow in +".into()));
    }

    /// The guard rule: the right side of `AND`/`OR` and each `CASE`
    /// branch raise only on the rows that reach them (nested too), and a
    /// row that reaches a failing instruction raises the oracle's error.
    #[test]
    fn guarded_logic_and_case_agree_with_oracle() {
        let (a, p) = (Expr::col("a"), Expr::col("p"));
        let div = |x: Expr| Expr::bin(BinOp::Div, Expr::lit(12i64), x);
        let inv = |x: Expr| Expr::eq(div(x), Expr::lit(1i64));
        let is0 = |x: Expr| Expr::eq(x, Expr::lit(0i64));
        let pos = Expr::bin(BinOp::Gt, a.clone(), Expr::lit(0i64));
        let a1 = Expr::bin(BinOp::Sub, a.clone(), Expr::lit(1i64));
        let neg = Expr::Un(UnOp::Neg, Arc::new(a.clone()));
        let r = rel(100); // a = 0 on row 0 only, where p holds
        for e in [
            Expr::bin(BinOp::Or, is0(a.clone()), inv(a.clone())),
            Expr::case(pos.clone(), div(a.clone()), neg),
            // three regions deep
            Expr::and(
                pos,
                Expr::case(
                    p.clone(),
                    inv(a.clone()),
                    Expr::bin(BinOp::Or, is0(a1.clone()), inv(a1)),
                ),
            ),
        ] {
            assert_matches_oracle(&e, &r);
        }
        let reached = Expr::and(p, inv(a));
        assert_agrees(&reached, &r);
        assert_eq!(
            kernel_column(&reached, &r).unwrap_err(),
            ee("division by zero")
        );
    }

    #[test]
    fn nat_div_and_mod_raise_the_oracle_error() {
        let s = Schema::of(&[("n", Ty::Nat), ("p", Ty::Bool)]);
        let rows = (0..70).map(|i| vec![Value::Nat(i + 4), Value::Bool(i == 3)]);
        let r = Rel::new(s, rows.collect());
        for op in [BinOp::Div, BinOp::Mod] {
            let e = Expr::bin(op, Expr::col("n"), Expr::lit(Value::Nat(2)));
            // under a guard only the one row that reaches it raises
            let case = Expr::case(Expr::col("p"), e.clone(), Expr::col("n"));
            let never = Expr::case(Expr::lit(false), e.clone(), Expr::col("n"));
            for (e, row) in [(e, "@4"), (case, "@7")] {
                assert_agrees(&e, &r);
                let err = kernel_column(&e, &r).unwrap_err().to_string();
                assert!(
                    err.contains(&format!("not applicable to {row} and @2")),
                    "{err}"
                );
            }
            assert_matches_oracle(&never, &r);
        }
    }

    #[test]
    fn repeated_columns_load_once() {
        let s = schema();
        let e = Expr::bin(BinOp::Mul, Expr::col("a"), Expr::col("a"));
        let k = compile(&e, &s).unwrap();
        let loads = k.instrs.iter().filter(|i| matches!(i, Instr::Load { .. }));
        assert_eq!(loads.count(), 1);
        // a region builds its mask once, and only if it can raise
        let guards = |e: &Expr| {
            let k = compile(&Expr::and(Expr::col("p"), e.clone()), &s).unwrap();
            k.instrs
                .iter()
                .filter(|i| matches!(i, Instr::Guard { .. }))
                .count()
        };
        let div = |x: &str, y: &str| Expr::bin(BinOp::Div, Expr::col(x), Expr::col(y));
        assert_eq!(guards(&Expr::eq(div("a", "b"), div("b", "a"))), 1);
        assert_eq!(guards(&Expr::col("p")), 0);
    }

    /// A filter's survivors are the next kernel's input: a compute over
    /// them, several batches long, sees only the rows the filter kept.
    #[test]
    fn computes_see_only_the_rows_filters_kept() {
        let r = rel(3000);
        let lt = Expr::bin(BinOp::Lt, Expr::col("a"), Expr::lit(500i64));
        let (keep, _) = filter(&lt, &r).unwrap();
        let kept = r.with_sel(keep);
        // y = a * 2 + b over rows 0..500 only
        let y = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::col("a"), Expr::lit(2i64)),
            Expr::col("b"),
        );
        let (col, batches) = compute(&y, &kept, Ty::Int).unwrap();
        assert_eq!(batches, 1);
        let want: Vec<i64> = (0..500).map(|a| 2 * a + 3).collect();
        assert_eq!(col.as_int(), Some(&want[..]));
        // rows a filter dropped never reach a later fallible compute
        let inv = Expr::bin(BinOp::Div, Expr::lit(100i64), Expr::col("a"));
        let pos = Expr::bin(BinOp::Gt, Expr::col("a"), Expr::lit(0i64));
        let (keep, _) = filter(&pos, &r).unwrap();
        let (col, _) = compute(&inv, &r.with_sel(keep), Ty::Int).unwrap();
        assert_eq!((col.len(), col.value(0)), (2999, Value::Int(100)));
        // unfiltered, the zero row reaches the divide and raises the
        // scalar oracle's message
        let err = compute(&inv, &r, Ty::Int).unwrap_err();
        assert_eq!(err, EngineError::Eval("division by zero".into()));
    }

    /// A kernel over a projected selection loads the picked columns at
    /// the selected rows, in the selection's order.
    #[test]
    fn kernels_bind_to_projected_selections() {
        let r = rel(100).with_sel((0..100).rev().collect());
        let view = r.project(Schema::of(&[("b", Ty::Int), ("d", Ty::Dbl)]), &[1, 2]);
        let gt = Expr::bin(BinOp::Gt, Expr::col("d"), Expr::lit(25.0f64));
        let (keep, _) = filter(&gt, &view).unwrap();
        // d = i/2 > 25 → i > 50, in the selection's (descending) order
        assert_eq!(keep, (51..100).rev().collect::<Vec<u32>>());
        let (col, _) = compute(&Expr::col("d"), &view, Ty::Dbl).unwrap();
        assert_eq!(col.value(0), Value::Dbl(49.5));
    }

    /// The compiler takes every well-typed expression; it refuses only
    /// what the oracle refuses before touching a row, with the oracle's
    /// error.
    #[test]
    fn kernels_refuse_only_what_the_oracle_refuses() {
        let r = rel(10);
        let inv = Expr::bin(BinOp::Div, Expr::lit(1i64), Expr::col("a"));
        let fallible = Expr::eq(inv.clone(), Expr::lit(1i64));
        let (keep, _) = filter(&Expr::bin(BinOp::Or, Expr::col("p"), fallible), &r).unwrap();
        // `p` OR 1/a = 1: rows 0, 2, 4, … and a = 1
        assert_eq!(keep, [0, 1, 2, 4, 6, 8]);
        let pos = Expr::bin(BinOp::Gt, Expr::col("a"), Expr::lit(0i64));
        let case = Expr::case(pos, inv, Expr::lit(1i64));
        let (col, _) = compute(&case, &r, Ty::Int).unwrap();
        assert_eq!(col.value(1), Value::Int(1));
        let param = Expr::Param(2, Ty::Bool);
        assert_eq!(filter(&param, &r), Err(EngineError::UnboundParam(2)));
        let ghost = Expr::col("ghost");
        assert_eq!(
            filter(&ghost, &r),
            Err(bind(&ghost, &r.schema).unwrap_err())
        );
        // an ill-typed predicate, which `infer_schema` stops before
        // dispatch, fails when it runs: no fallback
        assert_eq!(filter(&Expr::col("a"), &r), Err(confusion()));
        let err = compute(&Expr::col("a"), &r, Ty::Str).unwrap_err();
        assert_eq!(err, mistyped(&Expr::col("a")));
    }

    /// `On` (the default) runs a Select's kernel at every input size,
    /// `Off` the scalar operator; both agree.
    #[test]
    fn vec_modes_agree_and_only_on_runs_kernels() {
        assert_eq!(VecMode::default(), VecMode::On);
        for n in [0, 1, 63, 64, 200] {
            let mut plan = Plan::new();
            let l = plan.lit(schema(), rel(n).rows().into_owned());
            let root = plan.select(l, Expr::col("p"));
            let mut got = Vec::new();
            for (vec, batches) in [(VecMode::Off, 0), (VecMode::On, u64::from(n > 0))] {
                let db = crate::Database::new();
                db.set_vec_mode(vec);
                got.push(db.execute(&plan, root).unwrap());
                assert_eq!(db.stats().kernel_batches, batches, "{vec:?} at {n}");
            }
            assert_eq!(got[0], got[1], "{n} rows");
            assert_eq!(got[0].len(), (n as usize).div_ceil(2));
        }
    }
}
