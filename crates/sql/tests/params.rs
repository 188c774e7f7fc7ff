//! Statement parameters. The differential: a bound parameter means
//! exactly what the spliced literal meant — for seeded parameter tuples,
//! `bind(parse(template))` + `Plan::bind_params` returns the rows of
//! `bind(parse(literal text))`, with the optimizer on and off, and the
//! template survives codegen as `$n`. Then the binder's parameter typing
//! and its typed refusals.

use ferry_algebra::{BinOp, ColName, Dir, Expr, NodeId, Plan, Row, Schema, Ty, Value};
use ferry_engine::{Database, Snapshot};
use ferry_sql::{binder::bind, generate_sql, parser::parse, SqlError};

/// The end-to-end benchmark's `lookup.wire` statement: "order lines of
/// customer `$1` priced at least `$2`", per order.
const LOOKUP: &str = "SELECT c.name AS name, o.oid AS oid, COUNT (*) AS n, SUM (i.price) AS total \
     FROM customers AS c, orders AS o, items AS i \
     WHERE c.cid = $1 AND o.cid = c.cid AND i.oid = o.oid AND i.price >= $2 \
     GROUP BY c.name, o.oid ORDER BY oid ASC;";

/// The server session tests' parameterised statements.
const EMP_BY_SAL_DEPT: &str = "SELECT e.name AS who FROM emp AS e \
     WHERE e.sal >= $1 AND e.dept = $2 ORDER BY who ASC;";
const EMP_BY_SAL: &str = "SELECT e.name AS who FROM emp AS e WHERE e.sal >= $1 ORDER BY who ASC;";

/// A tiny deterministic generator (xorshift64*), so the test needs no
/// dependency and every run draws the same tuples.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
    }

    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }
}

fn database() -> Database {
    let db = Database::new();
    db.create_table(
        "customers",
        Schema::of(&[("cid", Ty::Int), ("name", Ty::Str)]),
        vec!["cid"],
    )
    .unwrap();
    db.create_table(
        "orders",
        Schema::of(&[("cid", Ty::Int), ("oid", Ty::Int)]),
        vec!["oid"],
    )
    .unwrap();
    db.create_table(
        "items",
        Schema::of(&[("oid", Ty::Int), ("price", Ty::Int), ("product", Ty::Str)]),
        vec!["oid", "product"],
    )
    .unwrap();
    db.create_table(
        "emp",
        Schema::of(&[("dept", Ty::Str), ("name", Ty::Str), ("sal", Ty::Int)]),
        vec!["name"],
    )
    .unwrap();
    let mut rng = Rng(0x5EED_F00D);
    let customers: Vec<Row> = (0..20)
        .map(|c| vec![Value::Int(c), Value::str(format!("c{c}"))])
        .collect();
    let orders: Vec<Row> = (0..60)
        .map(|o| vec![Value::Int(rng.int(0, 20)), Value::Int(o)])
        .collect();
    let items: Vec<Row> = (0..60)
        .flat_map(|o| (0..4).map(move |p| (o, p)))
        .map(|(o, p)| {
            vec![
                Value::Int(o),
                Value::Int(rng.int(0, 1000)),
                Value::str(format!("p{p}")),
            ]
        })
        .collect();
    db.insert("customers", customers).unwrap();
    db.insert("orders", orders).unwrap();
    db.insert("items", items).unwrap();
    db.insert(
        "emp",
        [
            ("eng", "ada", 90),
            ("eng", "bob", 70),
            ("ops", "cy", 50),
            ("hr", "eve", 60),
            ("x'y", "fay", 70),
        ]
        .iter()
        .map(|(d, n, s)| vec![Value::str(*d), Value::str(*n), Value::Int(*s)])
        .collect(),
    )
    .unwrap();
    db
}

/// Splice `params` into `template` as SQL literals — what a statement
/// meant before parameters were values.
fn splice(template: &str, params: &[Value]) -> String {
    let mut sql = template.to_string();
    for (i, v) in params.iter().enumerate().rev() {
        let lit = match v {
            Value::Int(n) => format!("({n})"),
            Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
            other => unreachable!("no {other:?} parameters here"),
        };
        sql = sql.replace(&format!("${}", i + 1), &lit);
    }
    sql
}

fn compile(snap: &Snapshot<'_>, sql: &str, optimize: bool) -> (Plan, NodeId) {
    let stmt = parse(sql).unwrap_or_else(|e| panic!("{e}\n{sql}"));
    let (plan, root) = bind(snap, &stmt).unwrap_or_else(|e| panic!("{e}\n{sql}"));
    if optimize {
        let (plan, roots) = ferry_optimizer::optimize(&plan, &[root]);
        (plan, roots[0])
    } else {
        (plan, root)
    }
}

fn rows(snap: &Snapshot<'_>, plan: &Plan, root: NodeId) -> Vec<Row> {
    snap.execute(plan, root).unwrap().rows().into_owned()
}

#[test]
fn bound_parameters_mean_what_spliced_literals_meant() {
    let db = database();
    let snap = db.snapshot();
    let mut rng = Rng(20090629);
    let depts = ["eng", "ops", "hr", "x'y", "", "héllo"];
    type Draw = fn(&mut Rng, &[&str]) -> Vec<Value>;
    let statements: [(&str, Draw); 3] = [
        (LOOKUP, |r, _| {
            vec![Value::Int(r.int(-1, 22)), Value::Int(r.int(-5, 1005))]
        }),
        (EMP_BY_SAL_DEPT, |r, d| {
            let dept = d[r.below(d.len() as u64) as usize];
            vec![Value::Int(r.int(-10, 110)), Value::str(dept)]
        }),
        (EMP_BY_SAL, |r, _| vec![Value::Int(r.int(-10, 110))]),
    ];
    let mut compared = 0;
    for (template, draw) in statements {
        for optimize in [false, true] {
            // compiled once, bound per tuple
            let (plan, root) = compile(&snap, template, optimize);
            for _ in 0..200 {
                let params = draw(&mut rng, &depts);
                let bound = plan.bind_params(&params).unwrap();
                let literal = splice(template, &params);
                // the dialect's string literals are ASCII: non-ASCII
                // values exist only as parameters
                if literal.is_ascii() {
                    let (lplan, lroot) = compile(&snap, &literal, optimize);
                    assert_eq!(
                        rows(&snap, &bound, root),
                        rows(&snap, &lplan, lroot),
                        "{literal} (optimize={optimize})"
                    );
                    compared += 1;
                } else {
                    assert!(rows(&snap, &bound, root).is_empty());
                }
            }
        }
    }
    assert!(compared >= 500, "only {compared} tuples compared");
}

#[test]
fn templates_survive_codegen_as_parameters() {
    let db = database();
    let snap = db.snapshot();
    // σ(sal >= $1 ∧ dept = $2)(emp), as the compiler would name it
    let mut plan = Plan::new();
    let cols: Vec<(ColName, Ty)> = ["dept", "name", "sal"]
        .iter()
        .zip([Ty::Str, Ty::Str, Ty::Int])
        .map(|(c, t)| (ColName::from(*c), t))
        .collect();
    let t = plan.table("emp", cols, vec![ColName::from("name")]);
    let pred = Expr::and(
        Expr::bin(BinOp::Ge, Expr::col("sal"), Expr::Param(0, Ty::Int)),
        Expr::eq(Expr::col("dept"), Expr::Param(1, Ty::Str)),
    );
    let s = plan.select(t, pred);
    let root = plan.serialize(
        s,
        vec![(ColName::from("name"), Dir::Asc)],
        vec!["name".into()],
    );
    let sql = generate_sql(&snap, &plan, root).unwrap().sql;
    assert!(sql.contains("$1") && sql.contains("$2"), "{sql}");
    let (again, aroot) = compile(&snap, &sql, false);
    assert_eq!(again.params().len(), 2, "{sql}");
    for params in [
        [Value::Int(60), Value::str("eng")],
        [Value::Int(0), Value::str("ops")],
    ] {
        assert_eq!(
            rows(&snap, &again.bind_params(&params).unwrap(), aroot),
            rows(&snap, &plan.bind_params(&params).unwrap(), root),
            "{sql}"
        );
    }
}

fn bind_sql(sql: &str) -> Result<Plan, SqlError> {
    let db = database();
    let snap = db.snapshot();
    bind(&snap, &parse(sql)?).map(|(plan, _)| plan)
}

fn slots(sql: &str) -> Vec<(u32, Ty)> {
    let mut p = bind_sql(sql)
        .unwrap_or_else(|e| panic!("{e}\n{sql}"))
        .params();
    p.sort_unstable_by_key(|(s, _)| *s);
    p
}

/// Statements and the parameter slots the binder types in them.
const TYPED: [(&str, &[(u32, Ty)]); 6] = [
    // from the other operand, on either side
    (EMP_BY_SAL_DEPT, &[(0, Ty::Int), (1, Ty::Str)]),
    (
        "SELECT e.name AS who FROM emp AS e WHERE $1 < e.sal;",
        &[(0, Ty::Int)],
    ),
    // nested in arithmetic, and in an output column
    (
        "SELECT e.sal * $2 AS x FROM emp AS e WHERE e.sal - $1 > 0;",
        &[(0, Ty::Int), (1, Ty::Int)],
    ),
    // from an enclosing CAST, including the identity casts
    (
        "SELECT CAST($1 AS DOUBLE PRECISION) AS x, CAST($2 AS VARCHAR) AS y;",
        &[(0, Ty::Dbl), (1, Ty::Str)],
    ),
    // against a surrogate, a parameter is a Nat
    (
        "SELECT r.who AS who FROM (SELECT e.name AS who, \
         ROW_NUMBER () OVER (ORDER BY e.name ASC) AS rn_nat FROM emp AS e) AS r \
         WHERE r.rn_nat = $1;",
        &[(0, Ty::Nat)],
    ),
    // one slot, used twice
    (
        "SELECT e.name AS who FROM emp AS e WHERE e.sal >= $1 AND e.sal < $1 + 20;",
        &[(0, Ty::Int), (0, Ty::Int)],
    ),
];

/// Statements whose parameters the binder refuses.
const UNTYPABLE: [&str; 7] = [
    "SELECT $1 AS x;",
    "SELECT e.name AS who FROM emp AS e WHERE $1 = $2;",
    "SELECT e.name AS who FROM emp AS e WHERE NOT $1;",
    "SELECT -$1 AS x FROM emp AS e;",
    "SELECT CASE WHEN e.sal > 1 THEN $1 ELSE 0 END AS x FROM emp AS e;",
    "SELECT e.name AS who FROM emp AS e WHERE e.sal >= $1 AND e.sal < $3;",
    "SELECT e.name AS who FROM emp AS e WHERE e.sal >= $2;",
];

#[test]
fn the_binder_types_parameters_from_their_context() {
    for (sql, want) in TYPED {
        assert_eq!(slots(sql), want, "{sql}");
    }
}

#[test]
fn untypable_and_gapped_parameters_are_bind_errors() {
    for bad in UNTYPABLE {
        assert!(
            matches!(bind_sql(bad), Err(SqlError::Bind(_))),
            "{bad}: {:?}",
            bind_sql(bad)
        );
    }
    assert!(matches!(
        bind_sql("SELECT e.name AS who FROM emp AS e WHERE e.sal >= $99999999999999999999;"),
        Err(SqlError::Lex(_))
    ));
    // a `$1` in a string literal is text, and no parameter
    assert!(slots("SELECT '$1' AS x;").is_empty());
}

/// Statement text arrives from a socket: every prefix of every statement
/// here, cut at each char boundary, either parses and binds or is an
/// `Err` — never a panic.
#[test]
fn every_prefix_of_a_statement_parses_or_errs() {
    let db = database();
    let snap = db.snapshot();
    let texts = [
        LOOKUP,
        EMP_BY_SAL_DEPT,
        EMP_BY_SAL,
        "SELECT 'Grüße $1 ''ü''' AS x;",
    ];
    let texts = texts
        .into_iter()
        .chain(TYPED.map(|(sql, _)| sql))
        .chain(UNTYPABLE);
    let mut cut = 0;
    for sql in texts {
        for (i, _) in sql.char_indices().chain([(sql.len(), ' ')]) {
            if let Ok(stmt) = parse(&sql[..i]) {
                let _ = bind(&snap, &stmt);
            }
            cut += 1;
        }
    }
    assert!(cut > 1000, "only {cut} prefixes");
}
