//! Materialised relations: the tabular values flowing between operators.
//!
//! A [`Rel`] is a schema, one typed column ([`ColVec`]) per schema column,
//! and an optional selection vector. Columns sit behind `Arc`s, so table
//! scans, literal re-executions and views share storage. Operators that
//! only drop or reorder rows (`Select`, `Distinct`, semi/anti joins,
//! `Serialize`) emit a selection vector over their input's columns;
//! `Project` and `Serialize` pick their input's column `Arc`s. Operators
//! that create rows (joins, windows, group-by, `UnionAll`) gather their
//! output column by column through index vectors, and `Compute`'s result
//! is a new column beside its input's.
//!
//! [`Row`]s exist only at the edges: [`Rel::new`] transposes rows into
//! columns once, and [`Rel::rows`] builds them back for storage, the
//! scalar oracle and SQL literal rendering (a query result leaves as
//! columns: the stitcher and the server's result stream read them in
//! place). Every row that crosses the edge either way is counted per
//! thread ([`rows_converted`]).

use crate::chunk::ColVec;
use crate::schema::Schema;
use crate::value::Value;
use std::borrow::Cow;
use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

thread_local! {
    static ROWS_CONVERTED: Cell<u64> = const { Cell::new(0) };
}

/// Rows the calling thread has converted between row and column form
/// ([`Rel::new`], [`Rel::append_rows`], [`Rel::row`], [`Rel::rows`]) since
/// it started. The difference across a piece of work on one thread is
/// that work's exact conversion count.
pub fn rows_converted() -> u64 {
    ROWS_CONVERTED.with(Cell::get)
}

fn converted(rows: usize) {
    ROWS_CONVERTED.with(|c| c.set(c.get() + rows as u64));
}

/// One table row. Cells are positionally aligned with a [`Schema`].
pub type Row = Vec<Value>;

/// A by-name column lookup ([`Rel::col_index`] / [`Rel::column`]) that
/// failed: the relation's schema has no column of the requested name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoSuchColumn {
    pub col: String,
    /// Rendered schema of the relation, for the error message.
    pub schema: String,
}

impl fmt::Display for NoSuchColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no such column {} in schema {}", self.col, self.schema)
    }
}

impl std::error::Error for NoSuchColumn {}

/// A materialised relation: a schema plus a bag of rows, stored as one
/// typed column per schema column.
///
/// The engine is a bulk-at-a-time executor, so operators consume and
/// produce whole `Rel`s. Row order *is* observable — the Ferry encoding of
/// list order relies on `pos` columns, and the final `Serialize` operator
/// sorts — but no operator other than `Serialize` promises a particular
/// physical order.
///
/// Equality ([`PartialEq`]) compares the *visible* contents (schema plus
/// the rows in order), never the representation: a dense relation and a
/// view are equal iff they expose the same rows.
#[derive(Debug, Clone)]
pub struct Rel {
    pub schema: Schema,
    /// One column per schema column, of its type, each `rows` cells long.
    cols: Vec<Arc<ColVec>>,
    /// Cells per column (kept apart: a relation may have no column).
    rows: usize,
    /// Selection vector: visible row `i` is column row `sel[i]`. `None`
    /// shows every column row in order.
    sel: Option<Arc<Vec<u32>>>,
}

impl Rel {
    /// The row edge: transpose `rows`, shaped like `schema`, into typed
    /// columns (see [`ColVec::extend_cells`] for mistyped cells).
    pub fn new(schema: Schema, rows: Vec<Row>) -> Rel {
        debug_assert!(
            rows.iter().all(|r| r.len() == schema.len()),
            "row width does not match schema {schema}"
        );
        converted(rows.len());
        let cols = (schema.cols().iter().enumerate())
            .map(|(c, (_, ty))| Arc::new(ColVec::from_cells(*ty, rows.iter().map(|r| &r[c]))))
            .collect();
        Rel::from_cols(schema, rows.len(), cols)
    }

    /// A dense relation over `rows`-long columns, one per `schema` column.
    pub fn from_cols(schema: Schema, rows: usize, cols: Vec<Arc<ColVec>>) -> Rel {
        debug_assert!(
            cols.len() == schema.len()
                && cols
                    .iter()
                    .zip(schema.cols())
                    .all(|(c, (_, ty))| c.len() == rows && c.ty() == *ty),
            "columns do not fit schema {schema}"
        );
        Rel {
            schema,
            cols,
            rows,
            sel: None,
        }
    }

    pub fn empty(schema: Schema) -> Rel {
        Rel::new(schema, Vec::new())
    }

    /// Number of visible rows.
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.rows,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.schema.len()
    }

    /// Column `c`, whole: visible row `i` is its cell [`Rel::raw_row`]`(i)`.
    /// Exposed so storage sharing is observable (`Arc::ptr_eq`).
    pub fn col(&self, c: usize) -> &Arc<ColVec> {
        &self.cols[c]
    }

    /// The selection vector, if any (visible row → column row).
    pub fn sel(&self) -> Option<&[u32]> {
        self.sel.as_deref().map(|v| v.as_slice())
    }

    /// Column row of visible row `i`.
    #[inline]
    pub fn raw_row(&self, i: usize) -> usize {
        match &self.sel {
            Some(s) => s[i] as usize,
            None => i,
        }
    }

    /// The cell at visible row `i`, column `c`.
    pub fn cell(&self, i: usize, c: usize) -> Value {
        self.cols[c].value(self.raw_row(i))
    }

    /// Visible row `i` as a [`Row`].
    pub fn row(&self, i: usize) -> Row {
        converted(1);
        let raw = self.raw_row(i);
        self.cols.iter().map(|c| c.value(raw)).collect()
    }

    /// The visible rows, built from the columns — the edge where storage,
    /// the scalar oracle and SQL literal rendering read a relation as
    /// rows. (A `Cow` for the callers that treat it as a slice.) Query
    /// results need none: the stitcher and the server's `RowBatch`
    /// encoder read the columns.
    pub fn rows(&self) -> Cow<'_, [Row]> {
        Cow::Owned((0..self.len()).map(|i| self.row(i)).collect())
    }

    /// Same rows and columns, different column names (arity and types
    /// preserved).
    pub fn with_schema(&self, schema: Schema) -> Rel {
        debug_assert!(self.schema.union_compatible(&schema));
        Rel {
            schema,
            cols: self.cols.clone(),
            rows: self.rows,
            sel: self.sel.clone(),
        }
    }

    /// A row-subset view: `raw` holds **column** row indices (obtain them
    /// via [`Rel::raw_row`]), visible in the given order. Shares the
    /// columns.
    pub fn with_sel(&self, raw: Vec<u32>) -> Rel {
        debug_assert!(raw.iter().all(|&r| (r as usize) < self.rows));
        Rel {
            schema: self.schema.clone(),
            cols: self.cols.clone(),
            rows: self.rows,
            sel: Some(Arc::new(raw)),
        }
    }

    /// Column `idxs[j]` as column `j` of `schema`: the same rows, sharing
    /// the picked columns.
    pub fn project(&self, schema: Schema, idxs: &[usize]) -> Rel {
        debug_assert_eq!(schema.len(), idxs.len());
        Rel {
            schema,
            cols: idxs.iter().map(|&c| self.cols[c].clone()).collect(),
            rows: self.rows,
            sel: self.sel.clone(),
        }
    }

    /// Every column at visible rows `idx`, in order. The columns
    /// themselves when `idx` shows every column row in order.
    pub fn gather(&self, mut idx: Vec<u32>) -> Vec<Arc<ColVec>> {
        if let Some(sel) = &self.sel {
            for i in idx.iter_mut() {
                *i = sel[*i as usize];
            }
        }
        if idx.len() == self.rows && idx.iter().enumerate().all(|(i, &r)| r as usize == i) {
            return self.cols.clone();
        }
        self.cols.iter().map(|c| Arc::new(c.gather(&idx))).collect()
    }

    /// Append `rows`, shaped like the schema, to a dense relation. A
    /// column shared with another relation is copied first
    /// (`Arc::make_mut`), so every other holder keeps its own cells.
    pub fn append_rows(&mut self, rows: &[Row]) {
        assert!(self.sel.is_none(), "appending to a view");
        converted(rows.len());
        for (c, col) in self.cols.iter_mut().enumerate() {
            Arc::make_mut(col).extend_cells(rows.iter().map(|r| &r[c]));
        }
        self.rows += rows.len();
    }

    /// Column index by name. Plans are schema-validated before execution,
    /// so engine-internal callers expect `Ok` — but ad-hoc callers (tests,
    /// result consumers) get a typed error instead of a panic.
    pub fn col_index(&self, name: &str) -> Result<usize, NoSuchColumn> {
        self.schema.index_of(name).ok_or_else(|| NoSuchColumn {
            col: name.to_string(),
            schema: self.schema.to_string(),
        })
    }

    /// Iterate over the values of one column.
    pub fn column(&self, name: &str) -> Result<impl Iterator<Item = Value> + '_, NoSuchColumn> {
        let idx = self.col_index(name)?;
        Ok((0..self.len()).map(move |i| self.cell(i, idx)))
    }

    /// Multiset equality: equal schema and equal rows up to order. Handy in
    /// tests for operators that do not promise physical order.
    pub fn same_bag(&self, other: &Rel) -> bool {
        if self.schema != other.schema || self.len() != other.len() {
            return false;
        }
        let mut a = self.rows().into_owned();
        let mut b = other.rows().into_owned();
        a.sort();
        b.sort();
        a == b
    }
}

impl PartialEq for Rel {
    fn eq(&self, other: &Rel) -> bool {
        if self.schema != other.schema || self.len() != other.len() {
            return false;
        }
        let same_cols = self
            .cols
            .iter()
            .zip(&other.cols)
            .all(|(a, b)| Arc::ptr_eq(a, b));
        if same_cols && self.sel() == other.sel() {
            return true;
        }
        (0..self.len()).all(|i| (0..self.width()).all(|c| self.cell(i, c) == other.cell(i, c)))
    }
}

impl fmt::Display for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for i in 0..self.len() {
            let cells: Vec<String> = (0..self.width())
                .map(|c| self.cell(i, c).to_string())
                .collect();
            writeln!(f, "  [{}]", cells.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Ty;

    fn sample() -> Rel {
        Rel::new(
            Schema::of(&[("pos", Ty::Nat), ("item", Ty::Int)]),
            vec![
                vec![Value::Nat(2), Value::Int(20)],
                vec![Value::Nat(1), Value::Int(10)],
            ],
        )
    }

    #[test]
    fn column_iteration() {
        let r = sample();
        let items: Vec<i64> = r
            .column("item")
            .unwrap()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(items, vec![20, 10]);
        let err = r.column("nope").err().unwrap();
        assert_eq!(err.col, "nope");
        assert!(err.to_string().contains("no such column nope"));
    }

    #[test]
    fn same_bag_ignores_order() {
        let a = sample();
        let b = a.with_sel(vec![1, 0]); // reversed view of the same columns
        assert!(a.same_bag(&b));
        assert_ne!(a, b);
        let c = a.with_sel(vec![1]);
        assert!(!a.same_bag(&c));
    }

    #[test]
    fn empty_rel_columns_are_typed() {
        let r = Rel::empty(Schema::of(&[("x", Ty::Int)]));
        assert!(r.is_empty());
        assert_eq!(r.col(0).as_int(), Some(&[][..]));
    }

    #[test]
    fn views_share_columns() {
        let r = sample();
        let v = r.with_sel(vec![1]);
        assert!(Arc::ptr_eq(r.col(1), v.col(1)));
        assert_eq!(v.len(), 1);
        assert_eq!(v.cell(0, 1), Value::Int(10));
        assert_eq!(v.rows().as_ref(), &[vec![Value::Nat(1), Value::Int(10)]]);
        // a projection picks the column Arcs and keeps the selection
        let p = v.project(Schema::of(&[("i", Ty::Int)]), &[1]);
        assert!(Arc::ptr_eq(r.col(1), p.col(0)));
        assert_eq!(p.rows().as_ref(), &[vec![Value::Int(10)]]);
        let renamed = r.with_schema(Schema::of(&[("p", Ty::Nat), ("i", Ty::Int)]));
        assert!(Arc::ptr_eq(r.col(0), renamed.col(0)));
        assert_eq!(renamed.col_index("i"), Ok(1));
        assert!(renamed.col_index("item").is_err()); // the old name is gone
    }

    #[test]
    fn every_row_across_the_edge_is_counted_and_views_are_free() {
        let before = rows_converted();
        let mut r = sample(); // 2 rows in
        let v = r
            .with_sel(vec![1])
            .project(Schema::of(&[("p", Ty::Nat)]), &[0]);
        let _ = (
            r.gather(vec![0, 1]),
            v.cell(0, 0),
            Rel::empty(r.schema.clone()),
        );
        assert_eq!(rows_converted() - before, 2);
        let _ = (r.row(0), v.rows()); // 1 + 1 out
        r.append_rows(&[vec![Value::Nat(3), Value::Int(30)]]); // 1 in
        assert_eq!(rows_converted() - before, 5);
    }

    #[test]
    fn gather_goes_through_the_selection_and_shares_an_identity() {
        let r = sample();
        let v = r.with_sel(vec![1, 0]);
        let g = Rel::from_cols(r.schema.clone(), 1, v.gather(vec![0]));
        assert_eq!(g.rows().as_ref(), &[vec![Value::Nat(1), Value::Int(10)]]);
        let all = v.gather(vec![1, 0]); // visible 1, 0 are column rows 0, 1
        assert!(Arc::ptr_eq(&all[0], r.col(0)));
    }

    #[test]
    fn equality_is_content_based() {
        let r = sample();
        let d = Rel::new(r.schema.clone(), r.rows().into_owned());
        assert!(!Arc::ptr_eq(r.col(0), d.col(0)));
        assert_eq!(r, d);
        let reordered = r.with_sel(vec![1, 0]);
        assert_ne!(r, reordered);
    }

    #[test]
    fn append_copies_shared_columns_only() {
        let mut r = sample();
        let before = r.clone();
        r.append_rows(&[vec![Value::Nat(3), Value::Int(30)]]);
        assert_eq!((before.len(), r.len()), (2, 3));
        assert!(!Arc::ptr_eq(before.col(0), r.col(0)));
        let shared = r.col(1).clone();
        drop(shared);
        let ptr = Arc::as_ptr(r.col(1));
        r.append_rows(&[vec![Value::Nat(4), Value::Int(40)]]);
        assert_eq!(
            Arc::as_ptr(r.col(1)),
            ptr,
            "an unshared column grows in place"
        );
    }
}
