//! User-defined record types — the paper's Template Haskell derivations.
//!
//! §3.1: "by leveraging metaprogramming capabilities of Template Haskell,
//! we provide for automatic derivation of QA instances for any
//! user-defined product type (including Haskell records)". Rust's
//! declarative macros play that role here: [`record!`] defines a plain
//! struct, derives its [`QA`](crate::QA)/[`TA`](crate::TA) instances
//! (fields encode positionally, exactly like the corresponding tuple), and
//! generates typed field accessors on `Q<TheStruct>` — the record-flavoured
//! counterpart of view patterns.
//!
//! ```
//! use ferry::prelude::*;
//! use ferry::record;
//!
//! record! {
//!     /// One employee row (fields in alphabetical column order).
//!     pub struct Emp : EmpFields {
//!         pub dept: String,
//!         pub name: String,
//!         pub sal: i64,
//!     }
//! }
//!
//! // `EmpFields` is the generated accessor trait on Q<Emp>:
//! let highest = |es: Q<Vec<Emp>>| maximum(map(|e: Q<Emp>| e.sal(), es));
//! # let _ = highest;
//! ```

/// Define a record type with derived `QA`/`TA` instances and a generated
/// field-accessor trait (its name follows the `:` after the struct name)
/// implemented for `Q<TheStruct>`. See the module docs.
#[macro_export]
macro_rules! record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident : $fields:ident {
            $( $fvis:vis $field:ident : $fty:ty ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        $vis struct $name {
            $( $fvis $field : $fty ),+
        }

        impl $crate::QA for $name {
            fn ty() -> $crate::Ty {
                $crate::Ty::Tuple(vec![ $( <$fty as $crate::QA>::ty() ),+ ])
            }
            fn to_val(&self) -> $crate::Val {
                $crate::Val::Tuple(vec![ $( $crate::QA::to_val(&self.$field) ),+ ])
            }
            fn from_val(v: &$crate::Val) -> Result<Self, $crate::FerryError> {
                const WIDTH: usize = [$( stringify!($field) ),+].len();
                match v {
                    $crate::Val::Tuple(vs) if vs.len() == WIDTH => {
                        let mut __i = 0usize;
                        Ok($name {
                            $( $field : {
                                let __v = <$fty as $crate::QA>::from_val(&vs[__i])?;
                                __i += 1;
                                __v
                            } ),+
                        })
                    }
                    other => Err($crate::FerryError::Decode(format!(
                        "expected a {}-field record, got {other:?}",
                        WIDTH
                    ))),
                }
            }
            fn decode<'a>(
                d: &mut $crate::decode::Decoder<'a>,
                at: $crate::decode::At<'a>,
            ) -> Result<Self, $crate::FerryError> {
                const WIDTH: usize = [$( stringify!($field) ),+].len();
                let Some(f) = at.fields(WIDTH) else {
                    return d.mismatch(at);
                };
                let mut __i = 0usize;
                Ok($name {
                    $( $field : {
                        let __v = <$fty as $crate::QA>::decode(d, f.at(__i))?;
                        __i += 1;
                        __v
                    } ),+
                })
            }
        }

        // records over basic fields are legal table rows, like the tuples
        // they encode as
        impl $crate::TA for $name
        where
            $( $fty : $crate::qa::BasicQA ),+
        {
        }

        /// Field accessors for queries over this record.
        #[allow(dead_code)]
        $vis trait $fields {
            $( fn $field(&self) -> $crate::Q<$fty>; )+
        }

        impl $fields for $crate::Q<$name> {
            $crate::record!(@accessors 0usize; $( ($field : $fty) )+ );
        }
    };

    // generate one accessor per field, tracking the projection index
    (@accessors $idx:expr; ) => {};
    (@accessors $idx:expr; ($field:ident : $fty:ty) $( $rest:tt )*) => {
        fn $field(&self) -> $crate::Q<$fty> {
            self.proj_unchecked::<$fty>($idx)
        }
        $crate::record!(@accessors $idx + 1usize; $( $rest )*);
    };
}

use crate::exp::Exp;
use crate::qa::{Q, QA};

impl<T: QA> Q<T> {
    /// Tuple projection used by generated record accessors. The `record!`
    /// macro guarantees the index/type pairing; not part of the public
    /// surface otherwise.
    #[doc(hidden)]
    pub fn proj_unchecked<F: QA>(&self, idx: usize) -> Q<F> {
        Q::wrap(Exp::Proj(idx, self.exp.clone(), F::ty()))
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    crate::record! {
        /// A point with a label.
        pub struct Point : PointFields {
            pub label: String,
            pub x: i64,
            pub y: i64,
        }
    }

    #[test]
    fn record_round_trips_as_tuple() {
        let p = Point {
            label: "origin".into(),
            x: 0,
            y: 0,
        };
        let v = QA::to_val(&p);
        assert_eq!(
            v,
            crate::Val::Tuple(vec![
                crate::Val::Text("origin".into()),
                crate::Val::Int(0),
                crate::Val::Int(0)
            ])
        );
        assert_eq!(<Point as QA>::from_val(&v).unwrap(), p);
        assert_eq!(<Point as QA>::ty(), <(String, i64, i64) as QA>::ty());
    }

    #[test]
    fn accessors_project_fields() {
        let q = toq(&Point {
            label: "p".into(),
            x: 3,
            y: 4,
        });
        let tables = crate::interp::Tables::new();
        let run = |e: &Q<i64>| {
            i64::from_val(&crate::interp::interpret(e.exp(), &tables).unwrap()).unwrap()
        };
        assert_eq!(run(&q.x()), 3);
        assert_eq!(run(&(q.x() * q.x() + q.y() * q.y())), 25);
    }

    #[test]
    fn records_in_lists() {
        let ps = vec![
            Point {
                label: "a".into(),
                x: 1,
                y: 2,
            },
            Point {
                label: "b".into(),
                x: 3,
                y: 4,
            },
        ];
        let q = map(|p: Q<Point>| p.x() + p.y(), toq(&ps));
        let tables = crate::interp::Tables::new();
        let got: Vec<i64> =
            QA::from_val(&crate::interp::interpret(q.exp(), &tables).unwrap()).unwrap();
        assert_eq!(got, vec![3, 7]);
    }
}
