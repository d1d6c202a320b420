//! A hand-rolled Rust lexer: just enough fidelity for lint scanning.
//!
//! The lexer turns source text into a flat token stream with line numbers and
//! a separate list of line comments (block comments are skipped, string and
//! char literals are opaque single tokens, lifetimes are distinguished from
//! char literals). It deliberately does **not** build an AST — the lint
//! passes in `crate::lints` pattern-match over token windows, and the
//! lightweight item parser in [`crate::parse`] recovers the two shapes the
//! protocol-surface lints need (enum declarations and `match` expressions).

/// Token classes. Keywords are ordinary [`TokKind::Ident`] tokens; multi-char
/// operators are emitted as consecutive single-char [`TokKind::Punct`] tokens
/// (`=>` is `=` then `>`), which is unambiguous for every pattern the lints
/// look for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character.
    Punct,
    /// Numeric literal (kept verbatim, so `1.0f64` retains its suffix).
    Num,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`), opaque.
    Str,
    /// Char or byte literal (`'x'`, `b'\n'`), opaque.
    Char,
    /// Lifetime (`'a`), distinguished from char literals.
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// The token class.
    pub kind: TokKind,
    /// Verbatim text (for [`TokKind::Str`] the quotes/hashes are dropped).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// `true` if this token is the identifier `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text == word
    }

    /// `true` if this token is the punctuation character `ch`.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokKind::Punct && self.text.as_bytes()[0] as char == ch && self.text.len() == 1
    }
}

/// A `//` line comment (doc comments included), with leading slashes kept.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line of the comment.
    pub line: u32,
    /// Comment text including the leading `//`.
    pub text: String,
}

/// The output of [`lex`]: tokens plus line comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All tokens in source order.
    pub toks: Vec<Tok>,
    /// All `//` comments in source order (pragma scanning reads these).
    pub comments: Vec<Comment>,
}

/// Lexes `src`. Unterminated literals are tolerated (the remainder of the
/// file becomes one opaque token) so a half-edited file cannot panic the
/// analyzer — it will simply lint what it can see.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    let count_lines = |s: &str| s.bytes().filter(|&b| b == b'\n').count() as u32;

    while i < bytes.len() {
        let c = bytes[i] as char;

        // Whitespace.
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }

        // Comments.
        if c == '/' && i + 1 < bytes.len() {
            if bytes[i + 1] == b'/' {
                let end = src[i..].find('\n').map(|n| i + n).unwrap_or(bytes.len());
                out.comments.push(Comment {
                    line,
                    text: src[i..end].to_owned(),
                });
                i = end;
                continue;
            }
            if bytes[i + 1] == b'*' {
                // Nested block comment.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'\n' {
                        line += 1;
                        j += 1;
                    } else if bytes[j] == b'/' && j + 1 < bytes.len() && bytes[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && j + 1 < bytes.len() && bytes[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                i = j;
                continue;
            }
        }

        // Raw strings and raw identifiers: r"…", r#"…"#, br#"…"#, r#ident.
        if (c == 'r' || c == 'b') && i + 1 < bytes.len() {
            let (prefix_len, rest) = if c == 'b' && bytes[i + 1] == b'r' {
                (2, &src[i + 2..])
            } else if c == 'r' {
                (1, &src[i + 1..])
            } else {
                (0, "")
            };
            if prefix_len > 0 {
                let hashes = rest.bytes().take_while(|&b| b == b'#').count();
                let after = &rest[hashes..];
                if after.starts_with('"') {
                    let close: String = std::iter::once('"')
                        .chain("#".repeat(hashes).chars())
                        .collect();
                    let body_start = i + prefix_len + hashes + 1;
                    let end = src[body_start..]
                        .find(&close)
                        .map(|n| body_start + n)
                        .unwrap_or(bytes.len());
                    let text = &src[body_start..end.min(bytes.len())];
                    out.toks.push(Tok {
                        kind: TokKind::Str,
                        text: text.to_owned(),
                        line,
                    });
                    line += count_lines(text);
                    i = (end + close.len()).min(bytes.len());
                    continue;
                }
                if c == 'r'
                    && hashes == 1
                    && after.starts_with(|ch: char| ch.is_alphanumeric() || ch == '_')
                {
                    // Raw identifier r#ident.
                    let start = i + 2;
                    let mut j = start;
                    while j < bytes.len()
                        && ((bytes[j] as char).is_alphanumeric() || bytes[j] == b'_')
                    {
                        j += 1;
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Ident,
                        text: src[start..j].to_owned(),
                        line,
                    });
                    i = j;
                    continue;
                }
            }
        }

        // Byte char / byte string: b'…', b"…".
        if c == 'b' && i + 1 < bytes.len() && (bytes[i + 1] == b'\'' || bytes[i + 1] == b'"') {
            i += 1;
            // Fall through to the quote handling below on the next loop
            // iteration would lose the prefix; handle inline instead.
            let quote = bytes[i] as char;
            let (tok, consumed, newlines) = read_quoted(&src[i..], quote);
            out.toks.push(Tok {
                kind: if quote == '"' {
                    TokKind::Str
                } else {
                    TokKind::Char
                },
                text: tok,
                line,
            });
            line += newlines;
            i += consumed;
            continue;
        }

        // String literal.
        if c == '"' {
            let (tok, consumed, newlines) = read_quoted(&src[i..], '"');
            out.toks.push(Tok {
                kind: TokKind::Str,
                text: tok,
                line,
            });
            line += newlines;
            i += consumed;
            continue;
        }

        // Lifetime or char literal.
        if c == '\'' {
            let next = bytes.get(i + 1).copied().map(|b| b as char);
            let after = bytes.get(i + 2).copied().map(|b| b as char);
            let is_lifetime =
                matches!(next, Some(ch) if ch.is_alphabetic() || ch == '_') && after != Some('\'');
            if is_lifetime {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && ((bytes[j] as char).is_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: src[start..j].to_owned(),
                    line,
                });
                i = j;
                continue;
            }
            let (tok, consumed, newlines) = read_quoted(&src[i..], '\'');
            out.toks.push(Tok {
                kind: TokKind::Char,
                text: tok,
                line,
            });
            line += newlines;
            i += consumed;
            continue;
        }

        // Identifier / keyword.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() && ((bytes[i] as char).is_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: src[start..i].to_owned(),
                line,
            });
            continue;
        }

        // Numeric literal (suffixes kept: `1.0f64`, `0xffu32`, `1e-3`).
        if c.is_ascii_digit() {
            let start = i;
            i += 1;
            while i < bytes.len() {
                let d = bytes[i] as char;
                if d.is_alphanumeric() || d == '_' {
                    // Exponent sign: 1e-3 / 2.5E+7.
                    if (d == 'e' || d == 'E')
                        && !src[start..i].starts_with("0x")
                        && matches!(bytes.get(i + 1), Some(b'+') | Some(b'-'))
                        && bytes.get(i + 2).is_some_and(|b| b.is_ascii_digit())
                    {
                        i += 2;
                    }
                    i += 1;
                    continue;
                }
                // A decimal point only if followed by a digit (so `0..3` and
                // `x.0` stay punctuation-separated).
                if d == '.'
                    && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit())
                    && !src[start..i].contains('.')
                {
                    i += 1;
                    continue;
                }
                break;
            }
            out.toks.push(Tok {
                kind: TokKind::Num,
                text: src[start..i].to_owned(),
                line,
            });
            continue;
        }

        // Anything else: single punctuation character.
        out.toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += c.len_utf8();
    }

    out
}

/// Reads a quoted literal starting at the opening quote. Returns the body
/// text (quotes stripped), bytes consumed including quotes, and the number of
/// newlines inside.
fn read_quoted(s: &str, quote: char) -> (String, usize, u32) {
    let bytes = s.as_bytes();
    let mut j = 1usize;
    let mut newlines = 0u32;
    while j < bytes.len() {
        let ch = bytes[j] as char;
        if ch == '\\' {
            j += 2;
            continue;
        }
        if ch == '\n' {
            newlines += 1;
        }
        if ch == quote {
            return (s[1..j].to_owned(), j + 1, newlines);
        }
        j += 1;
    }
    (s[1..].to_owned(), bytes.len(), newlines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .toks
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_puncts_and_lines() {
        let l = lex("let x = a.b;\nfor y in z {}");
        assert!(l.toks.iter().any(|t| t.is_ident("for") && t.line == 2));
        assert!(l.toks.iter().any(|t| t.is_punct(';') && t.line == 1));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Lifetime && t == "a"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t == "x"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t == "\\n"));
    }

    #[test]
    fn strings_are_opaque_and_multiline_counts() {
        let l = lex("let s = \"HashMap iter()\";\nlet t = 1;");
        assert!(!l.toks.iter().any(|t| t.is_ident("HashMap")));
        assert!(l.toks.iter().any(|t| t.is_ident("t") && t.line == 2));
        let raw = lex("let s = r#\"a \" b\"#; x");
        assert!(raw.toks.iter().any(|t| t.is_ident("x")));
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let l = lex("// analyze:allow(hash-iter): fine\nlet x = 1; /* block\nmulti */ y");
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("analyze:allow"));
        assert!(l.toks.iter().any(|t| t.is_ident("y") && t.line == 3));
    }

    #[test]
    fn numbers_keep_suffixes_and_ranges_split() {
        let toks = kinds("let a = 1.0f64; let b = 0..3; let c = 1e-3;");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Num && t == "1.0f64"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "0"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "3"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "1e-3"));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* a /* b */ c */ after");
        assert_eq!(l.toks.len(), 1);
        assert!(l.toks[0].is_ident("after"));
    }
}
