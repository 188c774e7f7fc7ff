//! A hand-written SQL lexer for the supported dialect.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use crate::SqlError;

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Keywords and identifiers are both `Ident`; the parser matches
    /// keywords case-insensitively.
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    /// A statement parameter `$n`, numbered from 1 as written.
    Param(u32),
    LParen,
    RParen,
    Comma,
    Dot,
    Semicolon,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// `||`.
    Concat,
}

/// Tokenise the input. `--` line comments are skipped.
pub fn lex(input: &str) -> Result<Vec<Tok>, SqlError> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let at = |i: usize| bytes.get(i).copied();
    let digits_from = |mut i: usize| {
        while at(i).is_some_and(|b| b.is_ascii_digit()) {
            i += 1;
        }
        i
    };
    // the scanner stops only at ASCII bytes, so every span it cuts lies on
    // char boundaries
    let text = |a: usize, b: usize| {
        input
            .get(a..b)
            .ok_or_else(|| SqlError::Lex(format!("no text at bytes {a}..{b}")))
    };
    let mut i = 0;
    while let Some(b) = at(i) {
        let c = b as char;
        let single = match c {
            '(' => Some(Tok::LParen),
            ')' => Some(Tok::RParen),
            ',' => Some(Tok::Comma),
            '.' => Some(Tok::Dot),
            ';' => Some(Tok::Semicolon),
            '*' => Some(Tok::Star),
            '+' => Some(Tok::Plus),
            '-' if at(i + 1) != Some(b'-') => Some(Tok::Minus),
            '/' => Some(Tok::Slash),
            '%' => Some(Tok::Percent),
            '=' => Some(Tok::Eq),
            _ => None,
        };
        if let Some(tok) = single {
            out.push(tok);
            i += 1;
            continue;
        }
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' => {
                while at(i).is_some_and(|b| b != b'\n') {
                    i += 1;
                }
            }
            '|' if at(i + 1) == Some(b'|') => {
                out.push(Tok::Concat);
                i += 2;
            }
            '<' | '>' => {
                let (tok, len) = match (c, at(i + 1)) {
                    ('<', Some(b'=')) => (Tok::Le, 2),
                    ('<', Some(b'>')) => (Tok::Ne, 2),
                    ('<', _) => (Tok::Lt, 1),
                    (_, Some(b'=')) => (Tok::Ge, 2),
                    _ => (Tok::Gt, 1),
                };
                out.push(tok);
                i += len;
            }
            '\'' => {
                // string literal; '' escapes a quote
                let mut s = String::new();
                i += 1;
                let mut start = i;
                loop {
                    match at(i) {
                        None => return Err(SqlError::Lex("unterminated string".into())),
                        Some(b'\'') => {
                            s.push_str(text(start, i)?);
                            if at(i + 1) != Some(b'\'') {
                                i += 1;
                                break;
                            }
                            s.push('\'');
                            i += 2;
                            start = i;
                        }
                        Some(_) => i += 1,
                    }
                }
                out.push(Tok::Str(s));
            }
            '"' => {
                // quoted identifier
                let start = i + 1;
                i = start;
                while at(i).is_some_and(|b| b != b'"') {
                    i += 1;
                }
                if at(i).is_none() {
                    return Err(SqlError::Lex("unterminated quoted identifier".into()));
                }
                out.push(Tok::Ident(text(start, i)?.to_string()));
                i += 1;
            }
            '$' => {
                // a parameter; inside a string literal `$` is text (above)
                let start = i + 1;
                i = digits_from(start);
                let text = text(start, i)?;
                let n: u32 = match text.parse() {
                    Ok(n) if n > 0 => n,
                    Ok(_) => return Err(SqlError::Lex("parameters are numbered from $1".into())),
                    Err(_) if text.is_empty() => {
                        return Err(SqlError::Lex(
                            "`$` must be followed by a parameter number".into(),
                        ))
                    }
                    Err(_) => {
                        return Err(SqlError::Lex(format!(
                            "parameter number ${text} is out of range"
                        )))
                    }
                };
                out.push(Tok::Param(n));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i = digits_from(i);
                let mut is_float = false;
                if at(i) == Some(b'.') && at(i + 1).is_some_and(|b| b.is_ascii_digit()) {
                    is_float = true;
                    i = digits_from(i + 1);
                }
                if matches!(at(i), Some(b'e' | b'E')) {
                    is_float = true;
                    i += 1;
                    if matches!(at(i), Some(b'+' | b'-')) {
                        i += 1;
                    }
                    i = digits_from(i);
                }
                let text = text(start, i)?;
                if is_float {
                    out.push(Tok::Float(
                        text.parse()
                            .map_err(|e| SqlError::Lex(format!("bad float {text}: {e}")))?,
                    ));
                } else {
                    out.push(Tok::Int(text.parse().map_err(|e| {
                        SqlError::Lex(format!("bad integer {text}: {e}"))
                    })?));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while at(i).is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_') {
                    i += 1;
                }
                out.push(Tok::Ident(text(start, i)?.to_string()));
            }
            _ => {
                let c = input.get(i..).and_then(|s| s.chars().next()).unwrap_or(c);
                return Err(SqlError::Lex(format!("unexpected character {c:?}")));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
mod tests {
    use super::*;

    /// A literal's text is the statement's, non-ASCII characters and
    /// doubled quotes included.
    #[test]
    fn string_literals_keep_their_characters() {
        let toks = lex("'Grüße ''ü''' \"naïve\"").unwrap();
        assert_eq!(
            toks,
            [Tok::Str("Grüße 'ü'".into()), Tok::Ident("naïve".into())]
        );
        assert_eq!(
            lex("x ü"),
            Err(SqlError::Lex("unexpected character 'ü'".into()))
        );
    }

    #[test]
    fn lexes_a_select() {
        let toks = lex("SELECT a.x AS y FROM t AS a WHERE a.x <= 3;").unwrap();
        assert_eq!(toks[0], Tok::Ident("SELECT".into()));
        assert!(toks.contains(&Tok::Le));
        assert!(toks.contains(&Tok::Int(3)));
        assert_eq!(*toks.last().unwrap(), Tok::Semicolon);
    }

    #[test]
    fn lexes_strings_and_escapes() {
        let toks = lex("'it''s'").unwrap();
        assert_eq!(toks, vec![Tok::Str("it's".into())]);
    }

    #[test]
    fn skips_comments() {
        let toks = lex("-- binding due to rank operator\nSELECT 1").unwrap();
        assert_eq!(toks[0], Tok::Ident("SELECT".into()));
        assert_eq!(toks[1], Tok::Int(1));
    }

    #[test]
    fn lexes_floats_and_operators() {
        let toks = lex("1.5 <> 2e3 || x").unwrap();
        assert_eq!(toks[0], Tok::Float(1.5));
        assert_eq!(toks[1], Tok::Ne);
        assert_eq!(toks[2], Tok::Float(2000.0));
        assert_eq!(toks[3], Tok::Concat);
    }

    #[test]
    fn lexes_parameters_outside_strings() {
        let toks = lex("x >= $1 AND y = '$2' || $10").unwrap();
        assert_eq!(toks[2], Tok::Param(1));
        assert_eq!(toks[6], Tok::Str("$2".into()));
        assert_eq!(toks[8], Tok::Param(10));
        assert_eq!(lex("$4294967295").unwrap(), vec![Tok::Param(u32::MAX)]);
    }

    #[test]
    fn malformed_parameters_are_lex_errors() {
        for bad in ["$", "$ 1", "$0", "$4294967296", "$99999999999999999999"] {
            assert!(matches!(lex(bad), Err(SqlError::Lex(_))), "{bad}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("SELECT #").is_err());
        assert!(lex("'unterminated").is_err());
    }
}
