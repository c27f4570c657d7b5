//! Hand-written lexer for the dialect.

use crate::error::ParseError;
use crate::token::{Keyword, Token, TokenKind};

/// Lex `src` into a token stream ending with [`TokenKind::Eof`].
pub fn lex(src: &str) -> Result<Vec<Token>, ParseError> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // SQL line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => push_simple(&mut tokens, &mut i, start, TokenKind::LParen),
            ')' => push_simple(&mut tokens, &mut i, start, TokenKind::RParen),
            ',' => push_simple(&mut tokens, &mut i, start, TokenKind::Comma),
            '.' => push_simple(&mut tokens, &mut i, start, TokenKind::Dot),
            '*' => push_simple(&mut tokens, &mut i, start, TokenKind::Star),
            ';' => push_simple(&mut tokens, &mut i, start, TokenKind::Semi),
            '=' => push_simple(&mut tokens, &mut i, start, TokenKind::Eq),
            '+' => push_simple(&mut tokens, &mut i, start, TokenKind::Plus),
            '-' => push_simple(&mut tokens, &mut i, start, TokenKind::Minus),
            '/' => push_simple(&mut tokens, &mut i, start, TokenKind::Slash),
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token { offset: start, kind: TokenKind::Le });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token { offset: start, kind: TokenKind::Ne });
                    i += 2;
                } else {
                    push_simple(&mut tokens, &mut i, start, TokenKind::Lt);
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token { offset: start, kind: TokenKind::Ge });
                    i += 2;
                } else {
                    push_simple(&mut tokens, &mut i, start, TokenKind::Gt);
                }
            }
            '!' => {
                // `!=`, plus the paper's `!<` (not-less: >=) and `!>` (not-greater: <=).
                match bytes.get(i + 1) {
                    Some(b'=') => {
                        tokens.push(Token { offset: start, kind: TokenKind::Ne });
                        i += 2;
                    }
                    Some(b'<') => {
                        tokens.push(Token { offset: start, kind: TokenKind::Ge });
                        i += 2;
                    }
                    Some(b'>') => {
                        tokens.push(Token { offset: start, kind: TokenKind::Le });
                        i += 2;
                    }
                    _ => return Err(ParseError::new(start, "unexpected character '!'")),
                }
            }
            '\'' => {
                // String literal; '' escapes a quote.
                let mut out = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => return Err(ParseError::new(start, "unterminated string literal")),
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            out.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(&b) => {
                            out.push(b as char);
                            i += 1;
                        }
                    }
                }
                tokens.push(Token { offset: start, kind: TokenKind::Str(out) });
            }
            '0'..='9' => {
                let mut end = i;
                while end < bytes.len() && bytes[end].is_ascii_digit() {
                    end += 1;
                }
                // A float has `digits . digits`; a lone trailing dot is the
                // qualification dot and stays separate.
                let is_float = end < bytes.len()
                    && bytes[end] == b'.'
                    && bytes.get(end + 1).is_some_and(u8::is_ascii_digit);
                if is_float {
                    end += 1;
                    while end < bytes.len() && bytes[end].is_ascii_digit() {
                        end += 1;
                    }
                    let text = &src[i..end];
                    let v: f64 = text
                        .parse()
                        .map_err(|_| ParseError::new(start, format!("bad float literal {text:?}")))?;
                    tokens.push(Token { offset: start, kind: TokenKind::Float(v) });
                } else {
                    // Integers lex as magnitudes; the parser applies the
                    // sign. 2^63, the magnitude of `i64::MIN`, has no
                    // positive `i64`, so it lexes as `Int(i64::MIN)` and the
                    // parser accepts it only after a minus sign.
                    let text = &src[i..end];
                    let v = match text.parse::<u64>() {
                        Ok(v) if v <= i64::MIN.unsigned_abs() => v as i64,
                        _ => {
                            let msg = format!("bad integer literal {text:?}");
                            return Err(ParseError::new(start, msg));
                        }
                    };
                    tokens.push(Token { offset: start, kind: TokenKind::Int(v) });
                }
                i = end;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut end = i;
                while end < bytes.len()
                    && ((bytes[end] as char).is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                let text = &src[i..end];
                let kind = match Keyword::from_ident(text) {
                    Some(k) => TokenKind::Keyword(k),
                    None => TokenKind::Ident(text.to_string()),
                };
                tokens.push(Token { offset: start, kind });
                i = end;
            }
            other => {
                return Err(ParseError::new(start, format!("unexpected character {other:?}")));
            }
        }
    }
    tokens.push(Token { offset: src.len(), kind: TokenKind::Eof });
    Ok(tokens)
}

fn push_simple(tokens: &mut Vec<Token>, i: &mut usize, offset: usize, kind: TokenKind) {
    tokens.push(Token { offset, kind });
    *i += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind as T;

    fn kinds(src: &str) -> Vec<T> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_example_one() {
        let ks = kinds("SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE PNO = 'P2');");
        assert!(ks.contains(&T::Str("P2".into())));
        assert!(ks.contains(&T::Keyword(Keyword::In)));
        assert_eq!(*ks.last().unwrap(), T::Eof);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(kinds("select")[0], T::Keyword(Keyword::Select));
        assert_eq!(kinds("SeLeCt")[0], T::Keyword(Keyword::Select));
    }

    #[test]
    fn paper_not_less_operators() {
        assert_eq!(kinds("!<")[0], T::Ge);
        assert_eq!(kinds("!>")[0], T::Le);
        assert_eq!(kinds("!=")[0], T::Ne);
        assert_eq!(kinds("<>")[0], T::Ne);
    }

    #[test]
    fn date_literal_pieces() {
        // `1-1-80` lexes as Int Minus Int Minus Int; the parser reassembles.
        assert_eq!(
            kinds("1-1-80"),
            vec![T::Int(1), T::Minus, T::Int(1), T::Minus, T::Int(80), T::Eof]
        );
        assert_eq!(
            kinds("8/14/77"),
            vec![T::Int(8), T::Slash, T::Int(14), T::Slash, T::Int(77), T::Eof]
        );
    }

    #[test]
    fn float_vs_qualified_name() {
        assert_eq!(kinds("1.5"), vec![T::Float(1.5), T::Eof]);
        assert_eq!(
            kinds("S.CITY"),
            vec![T::Ident("S".into()), T::Dot, T::Ident("CITY".into()), T::Eof]
        );
    }

    #[test]
    fn string_escape() {
        assert_eq!(kinds("'it''s'")[0], T::Str("it's".into()));
    }

    #[test]
    fn line_comments_skipped() {
        let ks = kinds("SELECT -- the works\n *");
        assert_eq!(ks, vec![T::Keyword(Keyword::Select), T::Star, T::Eof]);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("'oops").is_err());
    }

    #[test]
    fn stray_bang_errors() {
        assert!(lex("a ! b").is_err());
    }
}
