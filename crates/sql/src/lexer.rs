//! A hand-written SQL lexer for the supported dialect.

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
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            '.' => {
                out.push(Tok::Dot);
                i += 1;
            }
            ';' => {
                out.push(Tok::Semicolon);
                i += 1;
            }
            '*' => {
                out.push(Tok::Star);
                i += 1;
            }
            '+' => {
                out.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                out.push(Tok::Minus);
                i += 1;
            }
            '/' => {
                out.push(Tok::Slash);
                i += 1;
            }
            '%' => {
                out.push(Tok::Percent);
                i += 1;
            }
            '=' => {
                out.push(Tok::Eq);
                i += 1;
            }
            '|' if bytes.get(i + 1) == Some(&b'|') => {
                out.push(Tok::Concat);
                i += 2;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Le);
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Tok::Ne);
                    i += 2;
                } else {
                    out.push(Tok::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Ge);
                    i += 2;
                } else {
                    out.push(Tok::Gt);
                    i += 1;
                }
            }
            '\'' => {
                // string literal; '' escapes a quote
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => return Err(SqlError::Lex("unterminated string".into())),
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(&b) => {
                            s.push(b as char);
                            i += 1;
                        }
                    }
                }
                out.push(Tok::Str(s));
            }
            '"' => {
                // quoted identifier
                let mut s = String::new();
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    s.push(bytes[i] as char);
                    i += 1;
                }
                if i == bytes.len() {
                    return Err(SqlError::Lex("unterminated quoted identifier".into()));
                }
                i += 1;
                out.push(Tok::Ident(s));
            }
            '$' => {
                // a parameter; inside a string literal `$` is text (above)
                let start = i + 1;
                i = start;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &input[start..i];
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
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && i + 1 < bytes.len()
                    && (bytes[i + 1] as char).is_ascii_digit()
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    is_float = true;
                    i += 1;
                    if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                        i += 1;
                    }
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &input[start..i];
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
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(Tok::Ident(input[start..i].to_string()));
            }
            c => return Err(SqlError::Lex(format!("unexpected character {c:?}"))),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

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
