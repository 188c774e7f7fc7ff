//! Soundness of the property inference (`ferry_optimizer::props`) and of
//! the join elimination it drives, on generated plans.
//!
//! Plans are built from a stream of random words over small literal tables
//! with duplicate rows and a base table whose *declared* key holds
//! duplicate values. Every node is executed on the engine and every
//! inferred property is checked against the actual relation: a claimed
//! key has no duplicate projection, a claimed constant is the only value
//! in its column, a claimed one-row node has one row, a claimed lineage
//! reproduces the node's rows in order. Then the optimizer must not be
//! observable: `join_elimination` alone leaves every node's rows
//! untouched in physical order, the full pipeline leaves every serialized
//! result untouched.

use ferry_algebra::plan::{cn, Aggregate};
use ferry_algebra::{
    infer_node, AggFun, BinOp, ColName, Dir, Expr, JoinCols, Node, NodeId, Plan, Rel, Row, Schema,
    Ty, Value,
};
use ferry_engine::Database;
use ferry_optimizer::passes::join_elimination;
use ferry_optimizer::props::{self, Lineage};
use proptest::prelude::*;
use std::collections::HashSet;

// ------------------------------------------------------------ generator

/// `dup(k, v)`: declared key `k`, which rows 0/1 and 2/3 violate; rows 2
/// and 3 are identical.
fn database() -> Database {
    let db = Database::new();
    db.create_table(
        "dup",
        Schema::of(&[("k", Ty::Int), ("v", Ty::Int)]),
        vec!["k"],
    )
    .unwrap();
    let rows = [(1, 10), (1, 20), (2, 30), (2, 30), (3, 10)];
    db.insert(
        "dup",
        rows.iter()
            .map(|&(k, v)| vec![Value::Int(k), Value::Int(v)])
            .collect(),
    )
    .unwrap();
    db
}

/// A plan under random construction: every node added is schema-checked,
/// so whatever the words say, the plan validates.
struct Gen {
    plan: Plan,
    schemas: Vec<Schema>,
    words: std::vec::IntoIter<u64>,
    fresh: usize,
    products: usize,
}

impl Gen {
    fn word(&mut self) -> usize {
        self.words.next().unwrap_or(0) as usize
    }

    fn coin(&mut self) -> bool {
        self.word() & 1 == 0
    }

    fn fresh(&mut self) -> ColName {
        self.fresh += 1;
        cn(&format!("g{}", self.fresh))
    }

    /// Add `node` if it type-checks.
    fn add(&mut self, node: Node) -> Option<NodeId> {
        let id = NodeId(self.plan.len() as u32);
        let schema = infer_node(id, &node, &self.schemas).ok()?;
        self.schemas.push(schema);
        Some(self.plan.add(node))
    }

    fn any_node(&mut self) -> NodeId {
        NodeId((self.word() % self.plan.len()) as u32)
    }

    fn cols(&self, id: NodeId) -> Vec<(ColName, Ty)> {
        self.schemas[id.index()].cols().to_vec()
    }

    /// A random column of `id`, of type `ty` when one exists.
    fn col(&mut self, id: NodeId, ty: Option<Ty>) -> Option<ColName> {
        let cols: Vec<ColName> = self
            .cols(id)
            .into_iter()
            .filter(|(_, t)| ty.is_none_or(|ty| ty == *t))
            .map(|(n, _)| n)
            .collect();
        (!cols.is_empty()).then(|| cols[self.word() % cols.len()].clone())
    }

    /// A random subset of `id`'s columns (possibly empty).
    fn subset(&mut self, id: NodeId) -> Vec<ColName> {
        let cols = self.cols(id);
        let mask = self.word();
        let picked = cols.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1);
        picked.map(|(_, (n, _))| n.clone()).collect()
    }

    /// `id` under all-fresh column names, plus the (old, new) pairs.
    fn renamed(&mut self, id: NodeId) -> (NodeId, Vec<(ColName, ColName)>) {
        let pairs: Vec<(ColName, ColName)> = self
            .cols(id)
            .into_iter()
            .map(|(old, _)| (old, self.fresh()))
            .collect();
        let cols = pairs.iter().map(|(o, n)| (n.clone(), o.clone())).collect();
        let p = self.add(Node::Project { input: id, cols });
        (p.expect("a renaming always checks"), pairs)
    }

    /// A total order over `id`'s columns, so that numbering ties only
    /// among identical rows and no rewrite's physical order can show.
    fn total_order(&mut self, id: NodeId) -> Vec<(ColName, Dir)> {
        let mut cols: Vec<ColName> = self.cols(id).into_iter().map(|(n, _)| n).collect();
        let by = self.word();
        let len = cols.len().max(1);
        cols.rotate_left(by % len);
        let dir = |i: usize| {
            if by >> (8 + i) & 1 == 1 {
                Dir::Desc
            } else {
                Dir::Asc
            }
        };
        cols.into_iter()
            .enumerate()
            .map(|(i, c)| (c, dir(i)))
            .collect()
    }

    fn small_pred(&mut self, id: NodeId) -> Option<Expr> {
        let x = Expr::Col(self.col(id, Some(Ty::Int))?);
        let k = Expr::lit((self.word() % 4) as i64);
        Some(match self.word() % 3 {
            0 => Expr::eq(x, k),
            1 => Expr::bin(BinOp::Lt, x, k),
            _ => Expr::eq(x, Expr::Col(self.col(id, Some(Ty::Int))?)),
        })
    }

    /// Pair up to two same-typed columns of `a` and `b` (the latter given
    /// as `(old, new)` names, joined under the new ones).
    fn join_cols(&mut self, a: NodeId, b: NodeId, b_names: &[(ColName, ColName)]) -> JoinCols {
        let mut on = JoinCols::new(vec![], vec![]);
        for _ in 0..1 + self.word() % 2 {
            let Some(l) = self.col(a, None) else { break };
            let ty = self.schemas[a.index()].ty_of(&l);
            let Some(r) = self.col(b, ty) else { continue };
            let r = &b_names
                .iter()
                .find(|(old, _)| *old == r)
                .expect("renamed")
                .1;
            if !on.left.contains(&l) && !on.right.contains(r) {
                on.left.push(l);
                on.right.push(r.clone());
            }
        }
        on
    }

    /// One random operator on top of what exists.
    fn step(&mut self) {
        let a = self.any_node();
        let node = match self.word() % 21 {
            0 => Node::Attach {
                input: a,
                col: self.fresh(),
                value: Value::Int((self.word() % 3) as i64),
            },
            1 => {
                // narrow, rename, and now and then duplicate a column
                let mut cols: Vec<(ColName, ColName)> = Vec::new();
                for c in self.subset(a) {
                    let new = if self.coin() { c.clone() } else { self.fresh() };
                    cols.push((new, c));
                }
                if let Some(c) = self.col(a, None) {
                    cols.push((self.fresh(), c));
                }
                Node::Project { input: a, cols }
            }
            2 => {
                let Some(x) = self.col(a, Some(Ty::Int)) else {
                    return;
                };
                let k = Expr::lit((1 + self.word() % 2) as i64);
                let op = if self.coin() { BinOp::Add } else { BinOp::Mod };
                Node::Compute {
                    input: a,
                    col: self.fresh(),
                    expr: Expr::bin(op, Expr::Col(x), k),
                }
            }
            3 => match self.small_pred(a) {
                Some(pred) => Node::Select { input: a, pred },
                None => return,
            },
            4 => Node::Distinct { input: a },
            5 | 6 => Node::RowNum {
                input: a,
                col: self.fresh(),
                part: self.subset(a),
                order: self.total_order(a),
            },
            7 => Node::DenseRank {
                input: a,
                col: self.fresh(),
                part: self.subset(a),
                order: self.total_order(a).into_iter().take(2).collect(),
            },
            8 => Node::RowRank {
                input: a,
                col: self.fresh(),
                order: self.total_order(a).into_iter().take(1).collect(),
            },
            9 => {
                let mut aggs = vec![Aggregate {
                    fun: AggFun::CountAll,
                    input: None,
                    output: self.fresh(),
                }];
                if let Some(x) = self.col(a, Some(Ty::Int)) {
                    let fun = if self.coin() {
                        AggFun::Sum
                    } else {
                        AggFun::Min
                    };
                    aggs.push(Aggregate {
                        fun,
                        input: Some(x),
                        output: self.fresh(),
                    });
                }
                Node::GroupBy {
                    input: a,
                    keys: self.subset(a),
                    aggs,
                }
            }
            10 | 11 => {
                // the shape loop-lifting leaves behind: a node joined with
                // a renaming of itself on a subset of its columns
                let (right, names) = self.renamed(a);
                let on: Vec<&(ColName, ColName)> = {
                    let mask = self.word() | 1 << (self.word() % names.len());
                    names
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask >> i & 1 == 1)
                        .map(|(_, p)| p)
                        .collect()
                };
                Node::EquiJoin {
                    left: a,
                    right,
                    on: JoinCols::new(
                        on.iter().map(|(old, _)| old.clone()).collect(),
                        on.iter().map(|(_, new)| new.clone()).collect(),
                    ),
                }
            }
            12 => {
                let b = self.any_node();
                let (right, names) = self.renamed(b);
                let on = self.join_cols(a, b, &names);
                if on.left.is_empty() {
                    return;
                }
                Node::EquiJoin { left: a, right, on }
            }
            13 => {
                // against one known row, from either side
                let Some(x) = self.col(a, Some(Ty::Int)) else {
                    return;
                };
                let (k, other) = (self.fresh(), self.fresh());
                let value = Value::Int((self.word() % 3) as i64);
                let row = self.add(Node::Lit {
                    rel: Rel::new(
                        Schema::new(vec![(k.clone(), Ty::Int), (other, Ty::Int)]),
                        vec![vec![value, Value::Int(7)]],
                    ),
                });
                let row = row.expect("a literal always checks");
                match self.word() % 3 {
                    0 => Node::CrossJoin {
                        left: a,
                        right: row,
                    },
                    1 => Node::EquiJoin {
                        left: a,
                        right: row,
                        on: JoinCols::single(x, k),
                    },
                    _ => Node::EquiJoin {
                        left: row,
                        right: a,
                        on: JoinCols::single(k, x),
                    },
                }
            }
            14 | 15 if self.products < 3 => {
                self.products += 1;
                let b = self.any_node();
                let (right, names) = self.renamed(b);
                match (self.col(a, Some(Ty::Int)), self.col(b, Some(Ty::Int))) {
                    (Some(x), Some(y)) if self.coin() => {
                        let y = &names.iter().find(|(old, _)| *old == y).expect("renamed").1;
                        Node::ThetaJoin {
                            left: a,
                            right,
                            pred: Expr::bin(BinOp::Le, Expr::Col(x), Expr::Col(y.clone())),
                        }
                    }
                    _ => Node::CrossJoin { left: a, right },
                }
            }
            16 => {
                let Some(pred) = self.small_pred(a) else {
                    return;
                };
                let Some(right) = self.add(Node::Select { input: a, pred }) else {
                    return;
                };
                if self.coin() {
                    Node::UnionAll { left: a, right }
                } else {
                    Node::Difference { left: a, right }
                }
            }
            17 => {
                let b = self.any_node();
                let names: Vec<_> = self
                    .cols(b)
                    .into_iter()
                    .map(|(n, _)| (n.clone(), n))
                    .collect();
                let on = self.join_cols(a, b, &names);
                if on.left.is_empty() {
                    return;
                }
                if self.coin() {
                    Node::SemiJoin {
                        left: a,
                        right: b,
                        on,
                    }
                } else {
                    Node::AntiJoin {
                        left: a,
                        right: b,
                        on,
                    }
                }
            }
            _ => {
                // look a join's input up again from the join's own output:
                // each output row still carries the input row it came from
                let joins: Vec<NodeId> = all_nodes(&self.plan)
                    .into_iter()
                    .filter(|id| {
                        let n = self.plan.node(*id);
                        is_join(n) || matches!(n, Node::ThetaJoin { .. })
                    })
                    .collect();
                let (j, x) = if joins.is_empty() || self.coin() {
                    // a join made for the purpose, over an input with a key
                    let numbered = Node::RowNum {
                        input: a,
                        col: self.fresh(),
                        part: self.subset(a),
                        order: self.total_order(a),
                    };
                    let x = self.add(numbered).expect("a row number always checks");
                    let b = self.any_node();
                    let (left, _) = self.renamed(b);
                    let (Some(l), Some(r)) =
                        (self.col(left, Some(Ty::Int)), self.col(x, Some(Ty::Int)))
                    else {
                        return;
                    };
                    let on = JoinCols::single(l, r);
                    let j = self.add(Node::EquiJoin { left, right: x, on });
                    (j.expect("an Int = Int join checks"), x)
                } else {
                    let j = joins[self.word() % joins.len()];
                    (j, self.plan.node(j).children()[self.word() % 2])
                };
                let (left, names) = self.renamed(j);
                // all of its columns, half the time: any key it has is among them
                let mask = if self.coin() { usize::MAX } else { self.word() };
                let (l, r): (Vec<ColName>, Vec<ColName>) = self
                    .cols(x)
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, (c, _))| {
                        let new = &names.iter().find(|(old, _)| *old == c).expect("renamed").1;
                        (new.clone(), c)
                    })
                    .unzip();
                if l.is_empty() {
                    return;
                }
                Node::EquiJoin {
                    left,
                    right: x,
                    on: JoinCols::new(l, r),
                }
            }
        };
        self.add(node);
    }
}

/// The plan the word stream describes, with the schema of every node.
fn generate(words: Vec<u64>) -> (Plan, Vec<Schema>) {
    let mut g = Gen {
        plan: Plan::new(),
        schemas: Vec::new(),
        words: words.into_iter(),
        fresh: 0,
        products: 0,
    };
    let int = |i: u64| Value::Int(i as i64);
    // leaves: a literal with duplicate rows, one known row, the base table
    let w = g.word() as u64;
    let rows = (0..2 + w % 4).map(|i| vec![int((w >> (2 * i)) % 3), int((w >> (3 * i)) % 2)]);
    let (a, b) = (g.fresh(), g.fresh());
    g.add(Node::Lit {
        rel: Rel::new(
            Schema::new(vec![(a, Ty::Int), (b, Ty::Int)]),
            rows.collect::<Vec<Row>>(),
        ),
    });
    let one = g.fresh();
    g.add(Node::Lit {
        rel: Rel::new(Schema::new(vec![(one, Ty::Nat)]), vec![vec![Value::Nat(1)]]),
    });
    let (k, v) = (g.fresh(), g.fresh());
    g.add(Node::TableRef {
        name: "dup".into(),
        cols: vec![(k.clone(), Ty::Int), (v, Ty::Int)],
        keys: vec![k],
    });
    while g.words.len() > 0 {
        g.step();
    }
    (g.plan, g.schemas)
}

fn all_nodes(plan: &Plan) -> Vec<NodeId> {
    (0..plan.len() as u32).map(NodeId).collect()
}

fn rows_of(db: &Database, plan: &Plan, roots: &[NodeId]) -> Vec<(Schema, Vec<Row>)> {
    let rels = db
        .execute_bundle(plan, roots)
        .expect("generated plans execute");
    rels.into_iter()
        .map(|r| (r.schema.clone(), r.rows().into_owned()))
        .collect()
}

fn count(plan: &Plan, roots: &[NodeId], what: fn(&Node) -> bool) -> usize {
    let live: HashSet<NodeId> = roots.iter().flat_map(|r| plan.reachable(*r)).collect();
    live.iter().filter(|id| what(plan.node(**id))).count()
}

fn is_join(n: &Node) -> bool {
    matches!(n, Node::EquiJoin { .. } | Node::CrossJoin { .. })
}

// ----------------------------------------------------------- properties

/// Check every claim of `props::infer` and every lineage against the
/// executed plan; returns how many claims were checked.
fn check_inferred(db: &Database, plan: &Plan, schemas: &[Schema]) -> usize {
    let inferred = props::infer(plan).expect("generated plans infer");
    let ids = all_nodes(plan);
    let actual = rows_of(db, plan, &ids);
    let mut claims = 0;
    for (id, p) in ids.iter().zip(&inferred) {
        let (schema, rows) = &actual[id.index()];
        let at = |c: &ColName| schema.index_of(c).expect("property names a column");
        let context = || {
            format!(
                "node {} of\n{}",
                id.0,
                ferry_algebra::pretty::render(plan, *id)
            )
        };
        if p.one_row {
            claims += 1;
            assert_eq!(rows.len(), 1, "one_row at {}", context());
        }
        for (c, v) in &p.consts {
            claims += 1;
            let i = at(c);
            assert!(
                rows.iter().all(|r| r[i] == *v),
                "const {c} = {v} at {}",
                context()
            );
        }
        for key in &p.keys {
            claims += 1;
            let at: Vec<usize> = key.iter().map(at).collect();
            let mut seen = HashSet::new();
            let unique = rows
                .iter()
                .all(|r| seen.insert(at.iter().map(|&i| &r[i]).collect::<Vec<_>>()));
            assert!(unique, "key {key:?} at {}", context());
        }
        let lineage = Lineage::of(plan, *id, &schemas[id.index()]);
        if lineage.base != *id {
            claims += 1;
            let mut rebuilt = plan.clone();
            let over = &schemas[lineage.base.index()];
            let root = lineage
                .materialize(&mut rebuilt, lineage.base, over)
                .expect("no name clash");
            let got = rows_of(db, &rebuilt, &[root]).pop().expect("one root");
            assert_eq!(
                &got,
                &actual[id.index()],
                "lineage {lineage:?} at {}",
                context()
            );
        }
    }
    claims
}

/// `join_elimination` alone: every node of the input is a root, so every
/// node's schema *and physical row order* must come out as it went in.
fn check_elimination(db: &Database, plan: &Plan) -> usize {
    let ids = all_nodes(plan);
    let (p2, r2) = join_elimination(plan, &ids);
    for r in &r2 {
        ferry_algebra::validate(&p2, *r).expect("rewritten plan validates");
    }
    assert_eq!(
        rows_of(db, plan, &ids),
        rows_of(db, &p2, &r2),
        "join_elimination changed a result of\n{}",
        ferry_algebra::pretty::render(plan, *ids.last().expect("leaves"))
    );
    count(plan, &ids, is_join) - count(&p2, &r2, is_join)
}

/// The whole optimizer under two serialized roots (total order: the
/// comparison is exact).
fn check_optimizer(db: &Database, plan: &Plan, schemas: &[Schema], pick: usize) {
    let mut plan = plan.clone();
    let last = plan.len() - 1;
    let roots: Vec<NodeId> = [last, pick % (last + 1)]
        .iter()
        .map(|&i| {
            let cols: Vec<ColName> = schemas[i].names().cloned().collect();
            let order = cols.iter().map(|c| (c.clone(), Dir::Asc)).collect();
            plan.serialize(NodeId(i as u32), order, cols)
        })
        .collect();
    let (p2, r2) = ferry_optimizer::optimize(&plan, &roots);
    assert_eq!(
        rows_of(db, &plan, &roots),
        rows_of(db, &p2, &r2),
        "optimize changed a result of\n{}\n{}",
        ferry_algebra::pretty::render(&plan, roots[0]),
        ferry_algebra::pretty::render(&plan, roots[1]),
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    #[test]
    fn inferred_properties_hold_and_rewrites_are_invisible(
        words in proptest::collection::vec(any::<u64>(), 12..70),
    ) {
        let db = database();
        let pick = words[0] as usize;
        let (plan, schemas) = generate(words);
        check_inferred(&db, &plan, &schemas);
        check_elimination(&db, &plan);
        check_optimizer(&db, &plan, &schemas, pick);
    }
}

/// The generator must reach what it is there to test: properties get
/// claimed and joins get eliminated, not once but routinely.
#[test]
fn the_generator_exercises_the_rewrites() {
    let db = database();
    let (mut claims, mut eliminated) = (0, 0);
    for seed in 0..60u64 {
        let mut rng = TestRng::new(seed);
        let words = (0..50).map(|_| rng.next_u64()).collect();
        let (plan, schemas) = generate(words);
        claims += check_inferred(&db, &plan, &schemas);
        eliminated += check_elimination(&db, &plan);
    }
    assert!(claims > 600, "only {claims} property claims checked");
    assert!(eliminated > 30, "only {eliminated} joins eliminated");
}

// ------------------------------------------------------------ regression

/// `dup` declares `k` a key and holds `k = 1` twice. A self-join on `k`
/// looks like an identity join to anyone who believes the catalog; it
/// returns 7 rows, not 5, and must stay a join.
#[test]
fn violated_declared_key_self_join_is_not_eliminated() {
    let db = database();
    let mut p = Plan::new();
    let t = p.table(
        "dup",
        vec![(cn("k"), Ty::Int), (cn("v"), Ty::Int)],
        vec![cn("k")],
    );
    assert!(
        props::infer(&p).unwrap()[t.index()].keys.is_empty(),
        "a declared key is not a proven key"
    );
    let renamed = p.project(t, vec![(cn("k2"), cn("k")), (cn("v2"), cn("v"))]);
    let j = p.equi_join(renamed, t, JoinCols::single("k2", "k"));
    let root = p.serialize(
        j,
        ["k2", "v2", "v"].map(|c| (cn(c), Dir::Asc)).to_vec(),
        ["k2", "v2", "k", "v"].map(cn).to_vec(),
    );

    let (p2, r2) = ferry_optimizer::optimize(&p, &[root]);
    assert_eq!(
        count(&p2, &r2, is_join),
        1,
        "{}",
        ferry_algebra::pretty::render(&p2, r2[0])
    );
    let rows = rows_of(&db, &p2, &r2).pop().unwrap().1;
    assert_eq!(
        rows.len(),
        2 * 2 + 2 * 2 + 1,
        "every k = 1 row meets both k = 1 rows"
    );
    assert_eq!(rows, rows_of(&db, &p, &[root]).pop().unwrap().1);

    // the same join over a key the plan itself constructs does dissolve
    let mut p = Plan::new();
    let t = p.table(
        "dup",
        vec![(cn("k"), Ty::Int), (cn("v"), Ty::Int)],
        vec![cn("k")],
    );
    let numbered = p.rownum(
        t,
        "pos",
        vec![],
        vec![(cn("k"), Dir::Asc), (cn("v"), Dir::Asc)],
    );
    let renamed = p.project(numbered, vec![(cn("p2"), cn("pos")), (cn("v2"), cn("v"))]);
    let j = p.equi_join(renamed, numbered, JoinCols::single("p2", "pos"));
    let (p2, r2) = join_elimination(&p, &[j]);
    assert_eq!(
        count(&p2, &r2, is_join),
        0,
        "{}",
        ferry_algebra::pretty::render(&p2, r2[0])
    );
    assert_eq!(rows_of(&db, &p2, &r2), rows_of(&db, &p, &[j]));
}
