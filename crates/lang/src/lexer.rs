//! Lexer: source text → token stream with line numbers. Identifiers are
//! slices of the source, so a token is two words and copies for free.

use crate::CompileError;
use std::fmt;

/// A lexical token kind; an identifier borrows its name from the source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tok<'a> {
    // Literals and names
    Int(i64),
    Ident(&'a str),
    // Keywords
    Fn,
    Let,
    If,
    Else,
    While,
    Return,
    Global,
    Switch,
    Case,
    Default,
    Break,
    Continue,
    // Punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Colon,
    Assign,
    // Operators
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Shl,
    Shr,
    AmpAmp,
    PipePipe,
    Bang,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    /// End of input (always the last token).
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Ident(s) => write!(f, "{s}"),
            other => {
                let s = match other {
                    Tok::Fn => "fn",
                    Tok::Let => "let",
                    Tok::If => "if",
                    Tok::Else => "else",
                    Tok::While => "while",
                    Tok::Return => "return",
                    Tok::Global => "global",
                    Tok::Switch => "switch",
                    Tok::Case => "case",
                    Tok::Default => "default",
                    Tok::Break => "break",
                    Tok::Continue => "continue",
                    Tok::LParen => "(",
                    Tok::RParen => ")",
                    Tok::LBrace => "{",
                    Tok::RBrace => "}",
                    Tok::LBracket => "[",
                    Tok::RBracket => "]",
                    Tok::Comma => ",",
                    Tok::Semi => ";",
                    Tok::Colon => ":",
                    Tok::Assign => "=",
                    Tok::Plus => "+",
                    Tok::Minus => "-",
                    Tok::Star => "*",
                    Tok::Slash => "/",
                    Tok::Percent => "%",
                    Tok::Amp => "&",
                    Tok::Pipe => "|",
                    Tok::Caret => "^",
                    Tok::Shl => "<<",
                    Tok::Shr => ">>",
                    Tok::AmpAmp => "&&",
                    Tok::PipePipe => "||",
                    Tok::Bang => "!",
                    Tok::EqEq => "==",
                    Tok::NotEq => "!=",
                    Tok::Lt => "<",
                    Tok::Le => "<=",
                    Tok::Gt => ">",
                    Tok::Ge => ">=",
                    Tok::Eof => "<eof>",
                    Tok::Int(_) | Tok::Ident(_) => unreachable!(),
                };
                f.write_str(s)
            }
        }
    }
}

/// A token plus the 1-based line it starts on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token<'a> {
    pub tok: Tok<'a>,
    pub line: u32,
}

/// Lexes `source` into tokens (terminated by [`Tok::Eof`]).
///
/// # Errors
///
/// Returns a [`CompileError`] on unknown characters or malformed integer
/// literals.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, CompileError> {
    // About one token per four bytes of MiniLang source.
    let mut tokens = Vec::with_capacity(source.len() / 4 + 1);
    let bytes = source.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &source[start..i];
                let value: i64 = text.parse().map_err(|_| {
                    CompileError::new(line, format!("integer literal `{text}` out of range"))
                })?;
                tokens.push(Token {
                    tok: Tok::Int(value),
                    line,
                });
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let text = &source[start..i];
                let tok = match text {
                    "fn" => Tok::Fn,
                    "let" => Tok::Let,
                    "if" => Tok::If,
                    "else" => Tok::Else,
                    "while" => Tok::While,
                    "return" => Tok::Return,
                    "global" => Tok::Global,
                    "switch" => Tok::Switch,
                    "case" => Tok::Case,
                    "default" => Tok::Default,
                    "break" => Tok::Break,
                    "continue" => Tok::Continue,
                    _ => Tok::Ident(text),
                };
                tokens.push(Token { tok, line });
            }
            _ => {
                let two = |a: u8, b: u8| i + 1 < bytes.len() && c == a && bytes[i + 1] == b;
                let (tok, len) = if two(b'<', b'<') {
                    (Tok::Shl, 2)
                } else if two(b'>', b'>') {
                    (Tok::Shr, 2)
                } else if two(b'&', b'&') {
                    (Tok::AmpAmp, 2)
                } else if two(b'|', b'|') {
                    (Tok::PipePipe, 2)
                } else if two(b'=', b'=') {
                    (Tok::EqEq, 2)
                } else if two(b'!', b'=') {
                    (Tok::NotEq, 2)
                } else if two(b'<', b'=') {
                    (Tok::Le, 2)
                } else if two(b'>', b'=') {
                    (Tok::Ge, 2)
                } else {
                    let t = match c {
                        b'(' => Tok::LParen,
                        b')' => Tok::RParen,
                        b'{' => Tok::LBrace,
                        b'}' => Tok::RBrace,
                        b'[' => Tok::LBracket,
                        b']' => Tok::RBracket,
                        b',' => Tok::Comma,
                        b';' => Tok::Semi,
                        b':' => Tok::Colon,
                        b'=' => Tok::Assign,
                        b'+' => Tok::Plus,
                        b'-' => Tok::Minus,
                        b'*' => Tok::Star,
                        b'/' => Tok::Slash,
                        b'%' => Tok::Percent,
                        b'&' => Tok::Amp,
                        b'|' => Tok::Pipe,
                        b'^' => Tok::Caret,
                        b'!' => Tok::Bang,
                        b'<' => Tok::Lt,
                        b'>' => Tok::Gt,
                        other => {
                            return Err(CompileError::new(
                                line,
                                format!("unexpected character `{}`", other as char),
                            ))
                        }
                    };
                    (t, 1)
                };
                tokens.push(Token { tok, line });
                i += len;
            }
        }
    }
    tokens.push(Token {
        tok: Tok::Eof,
        line,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("fn foo let iffy"),
            vec![
                Tok::Fn,
                Tok::Ident("foo"),
                Tok::Let,
                Tok::Ident("iffy"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            toks("<< >> && || == != <= >= < >"),
            vec![
                Tok::Shl,
                Tok::Shr,
                Tok::AmpAmp,
                Tok::PipePipe,
                Tok::EqEq,
                Tok::NotEq,
                Tok::Le,
                Tok::Ge,
                Tok::Lt,
                Tok::Gt,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped_but_lines_advance() {
        let ts = lex("// comment\nfn").unwrap();
        assert_eq!(ts[0].tok, Tok::Fn);
        assert_eq!(ts[0].line, 2);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let ts = lex("a\nb\n\nc").unwrap();
        let lines: Vec<u32> = ts.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4, 4]);
    }

    #[test]
    fn unknown_character_is_an_error() {
        let e = lex("fn @").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains('@'));
    }

    #[test]
    fn big_literal_out_of_range() {
        let e = lex("99999999999999999999999").unwrap_err();
        assert!(e.message.contains("out of range"));
    }
}
