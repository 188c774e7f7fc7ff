//! Seeded input generators. Everything here is plain Rust data: the
//! product only ever sees what these functions return (via `sut.rs`),
//! never the seed.
//!
//! Row *counts* are fixed by the sizes alone, so the amount of work a
//! workload does is the same for every seed; the seed decides which
//! values and which associations the rows carry.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One cell of a generated base-table row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Int(i64),
    Str(String),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColTy {
    Int,
    Str,
}

/// A generated base table: schema, key columns, rows.
#[derive(Debug, Clone)]
pub struct TableData {
    pub name: &'static str,
    pub cols: Vec<(&'static str, ColTy)>,
    pub keys: Vec<&'static str>,
    pub rows: Vec<Vec<Cell>>,
}

impl TableData {
    /// Bytes of user data in the rows: 8 per integer, the UTF-8 length
    /// per string — the denominator of `storage.write_amp`.
    pub fn user_bytes(rows: &[Vec<Cell>]) -> u64 {
        rows.iter()
            .flatten()
            .map(|c| match c {
                Cell::Int(_) => 8,
                Cell::Str(s) => s.len() as u64,
            })
            .sum()
    }
}

fn s(x: impl Into<String>) -> Cell {
    Cell::Str(x.into())
}

/// The seven features and their meanings (Fig. 1, verbatim).
pub const MEANINGS: [(&str, &str); 7] = [
    ("list", "respects list order"),
    ("nest", "supports data nesting"),
    ("aval", "avoids query avalanches"),
    ("type", "is statically type-checked"),
    ("SQL!", "guarantees translation to SQL"),
    ("maps", "admits user-defined object mappings"),
    ("comp", "has compositional syntax and semantics"),
];

/// The Table 1 database at `categories` categories × `facs_per_cat`
/// facilities: the shape of `ferry_bench::workload::scaled_dataset`, with
/// the feature assignment driven by `seed`. Facility `i` carries
/// `1 + i mod 3` features (a seeded run of consecutive feature names), so
/// `features` has exactly `2 · categories · facs_per_cat` rows for every
/// seed when the facility count is a multiple of three.
pub fn facilities(categories: usize, facs_per_cat: usize, seed: u64) -> Vec<TableData> {
    let mut rng = rng(seed, 0xFAC1_11E5);
    let mut facs = Vec::with_capacity(categories * facs_per_cat);
    let mut feats = Vec::with_capacity(2 * categories * facs_per_cat);
    for c in 0..categories {
        let cat = format!("cat{c:06}");
        for f in 0..facs_per_cat {
            let fac = format!("fac{c:06}_{f}");
            facs.push(vec![s(fac.clone()), s(cat.clone())]);
            let n = 1 + (c * facs_per_cat + f) % 3;
            let start = rng.gen_range(0..MEANINGS.len());
            for k in 0..n {
                let feat = MEANINGS[(start + k) % MEANINGS.len()].0;
                feats.push(vec![s(fac.clone()), s(feat)]);
            }
        }
    }
    vec![
        TableData {
            name: "facilities",
            cols: vec![("fac", ColTy::Str), ("cat", ColTy::Str)],
            keys: vec!["fac"],
            rows: facs,
        },
        TableData {
            name: "features",
            cols: vec![("fac", ColTy::Str), ("feature", ColTy::Str)],
            keys: vec!["fac", "feature"],
            rows: feats,
        },
        TableData {
            name: "meanings",
            cols: vec![("feature", ColTy::Str), ("meaning", ColTy::Str)],
            keys: vec!["feature"],
            rows: MEANINGS.iter().map(|(f, m)| vec![s(*f), s(*m)]).collect(),
        },
    ]
}

/// Items per order, everywhere in the benchmark.
pub const ITEMS_PER_ORDER: usize = 4;
/// Item prices are drawn from `0..PRICE_RANGE`.
pub const PRICE_RANGE: i64 = 1000;

/// One order with its line items, as the harness knows it.
#[derive(Debug, Clone, PartialEq)]
pub struct Order {
    pub oid: i64,
    pub cid: i64,
    /// `(product, price)`, in product (= key) order.
    pub items: Vec<(String, i64)>,
}

impl Order {
    /// A seeded order for customer `cid`.
    pub fn generate(oid: i64, cid: i64, rng: &mut StdRng) -> Order {
        let items = (0..ITEMS_PER_ORDER)
            .map(|k| (format!("p{k}"), rng.gen_range(0..PRICE_RANGE)))
            .collect();
        Order { oid, cid, items }
    }

    pub fn order_row(&self) -> Vec<Cell> {
        vec![Cell::Int(self.cid), Cell::Int(self.oid)]
    }

    pub fn item_rows(&self) -> Vec<Vec<Cell>> {
        self.items
            .iter()
            .map(|(product, price)| {
                vec![Cell::Int(self.oid), Cell::Int(*price), s(product.clone())]
            })
            .collect()
    }
}

/// The `orders` instance: `customers` customers, `orders` orders spread
/// over them by the seed, [`ITEMS_PER_ORDER`] items each.
#[derive(Debug, Clone)]
pub struct OrdersData {
    pub customers: Vec<(i64, String)>,
    pub orders: Vec<Order>,
}

pub fn customer_name(cid: i64) -> String {
    format!("cust{cid:05}")
}

pub fn orders(customers: usize, orders: usize, seed: u64) -> OrdersData {
    let mut rng = rng(seed, 0x0DE5_0DE5);
    OrdersData {
        customers: (0..customers as i64)
            .map(|c| (c, customer_name(c)))
            .collect(),
        orders: (0..orders as i64)
            .map(|oid| {
                let cid = rng.gen_range(0..customers as i64);
                Order::generate(oid, cid, &mut rng)
            })
            .collect(),
    }
}

impl OrdersData {
    pub fn tables(&self) -> Vec<TableData> {
        vec![
            TableData {
                name: "customers",
                cols: vec![("cid", ColTy::Int), ("name", ColTy::Str)],
                keys: vec!["cid"],
                rows: self
                    .customers
                    .iter()
                    .map(|(c, n)| vec![Cell::Int(*c), s(n.clone())])
                    .collect(),
            },
            TableData {
                name: "orders",
                cols: vec![("cid", ColTy::Int), ("oid", ColTy::Int)],
                keys: vec!["oid"],
                rows: self.orders.iter().map(Order::order_row).collect(),
            },
            TableData {
                name: "items",
                cols: vec![
                    ("oid", ColTy::Int),
                    ("price", ColTy::Int),
                    ("product", ColTy::Str),
                ],
                keys: vec!["oid", "product"],
                rows: self.orders.iter().flat_map(Order::item_rows).collect(),
            },
        ]
    }

    /// What "order lines of customer `cid` priced at least `floor`" must
    /// return — `(name, oid, lines, total)` per order with a qualifying
    /// line, in `oid` order — computed from the generated data alone.
    pub fn lookup_expected(&self, cid: i64, floor: i64) -> Vec<(String, i64, i64, i64)> {
        let Some((_, name)) = self.customers.iter().find(|c| c.0 == cid) else {
            return Vec::new();
        };
        self.orders
            .iter()
            .filter(|o| o.cid == cid)
            .filter_map(|o| {
                let hit: Vec<i64> = o
                    .items
                    .iter()
                    .map(|i| i.1)
                    .filter(|p| *p >= floor)
                    .collect();
                (!hit.is_empty()).then(|| (name.clone(), o.oid, hit.len() as i64, hit.iter().sum()))
            })
            .collect()
    }
}

/// The verbatim 3-customer instance of `examples/orders.rs`, for the
/// `adhoc.cold` pool.
pub fn paper_orders() -> OrdersData {
    let order = |oid, cid, items: &[(&str, i64)]| Order {
        oid,
        cid,
        items: items.iter().map(|(p, c)| (p.to_string(), *c)).collect(),
    };
    OrdersData {
        customers: vec![(1, "Ada".into()), (2, "Grace".into()), (3, "Edsger".into())],
        orders: vec![
            order(10, 1, &[("anvil", 120), ("banana", 2)]),
            order(11, 1, &[("compass", 30)]),
            order(20, 2, &[("dynamite", 45), ("fuse", 45)]),
        ],
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        idx.swap(i, rng.gen_range(0..=i));
    }
    idx
}

pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}
