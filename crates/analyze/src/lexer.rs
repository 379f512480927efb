//! A lightweight, comment- and string-aware Rust lexer.
//!
//! The conformance rules ([`crate::rules`]) need to see Rust source as a
//! token stream — identifiers and punctuation with line numbers — with
//! comments carried *separately* (several rules accept an adjacent
//! justification comment) and string/char literals skipped entirely (a rule
//! pattern appearing inside a test fixture string must not fire).
//!
//! In the repo's vendored-shim tradition this is a hand-rolled subset, not
//! `syn`: it understands exactly as much of Rust's lexical grammar as the
//! rules need —
//!
//! * line comments (`//`, doc `///` and `//!`) and *nested* block comments
//!   (`/* /* */ */`, doc `/** */`);
//! * string literals with escapes, byte strings, and raw (byte) strings
//!   with arbitrary `#` fencing (`r#"…"#`, `br##"…"##`);
//! * char literals (with escapes) disambiguated from lifetimes (`'a`);
//! * identifiers/keywords/number literals as [`TokKind::Ident`], everything
//!   else as single-character [`TokKind::Punct`].
//!
//! It does **not** parse: no expression structure, no macro expansion, no
//! type resolution.  The rules that need block structure (the CAS-retry rule
//! brace-matches `loop` bodies) do their own nesting count over the token
//! stream.  The limits this implies are documented in `DESIGN.md` §9.

/// What kind of token was lexed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier, keyword or number literal.
    Ident(String),
    /// A single punctuation character (braces, `:`, `#`, operators, …).
    Punct(char),
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based line the token starts on.
    pub line: u32,
    /// The token itself.
    pub kind: TokKind,
}

impl Token {
    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            TokKind::Punct(_) => None,
        }
    }

    /// `true` iff this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// One comment with its 1-based starting line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (differs for block comments).
    pub end_line: u32,
    /// Full comment text including the delimiters.
    pub text: String,
    /// `true` for rustdoc comments (`///`, `//!`, `/** */`, `/*! */`).
    pub doc: bool,
}

/// The result of lexing one source file.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order, separate from the token stream.
    pub comments: Vec<Comment>,
}

/// Lex `src` into tokens and comments.
pub fn lex(src: &str) -> Lexed {
    let mut out = Lexed::default();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;

    // Count newlines in bytes[start..end) into `line`.
    let count_lines = |chars: &[char]| chars.iter().filter(|&&c| c == '\n').count() as u32;

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                let doc = text.starts_with("///") || text.starts_with("//!");
                // A run of `//` lines on consecutive lines is one logical
                // comment (a justification paragraph); merge it so markers
                // on any line of the run cover the whole run.
                match out.comments.last_mut() {
                    Some(prev)
                        if prev.doc == doc
                            && prev.end_line + 1 == line
                            && prev.text.starts_with("//") =>
                    {
                        prev.end_line = line;
                        prev.text.push('\n');
                        prev.text.push_str(&text);
                    }
                    _ => out.comments.push(Comment {
                        line,
                        end_line: line,
                        text,
                        doc,
                    }),
                }
            }
            '/' if bytes.get(i + 1) == Some(&'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        i += 1;
                    }
                }
                line += count_lines(&bytes[start..i]);
                let text: String = bytes[start..i].iter().collect();
                let doc = text.starts_with("/**") || text.starts_with("/*!");
                out.comments.push(Comment {
                    line: start_line,
                    end_line: line,
                    text,
                    doc,
                });
            }
            '"' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        '\\' => i += 2,
                        '"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                line += count_lines(&bytes[start..i.min(bytes.len())]);
            }
            '\'' => {
                // Lifetime or char literal.  After a quote: `\` means a char
                // escape; an ident char NOT followed by a closing quote means
                // a lifetime; otherwise a plain char literal.
                if bytes.get(i + 1) == Some(&'\\') {
                    // Escaped char literal: skip quote, backslash and the
                    // escaped char itself (which may be `'`), then scan to
                    // the closing quote (covers `'\u{…}'`).
                    i += 3;
                    while i < bytes.len() && bytes[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                } else if bytes
                    .get(i + 1)
                    .is_some_and(|c| c.is_alphanumeric() || *c == '_')
                    && bytes.get(i + 2) != Some(&'\'')
                {
                    // Lifetime: consume the ident, no closing quote.
                    i += 1;
                    while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                        i += 1;
                    }
                } else {
                    // Plain char literal like 'x' (or the degenerate `'''`).
                    i += 1;
                    while i < bytes.len() && bytes[i] != '\'' {
                        if bytes[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    i += 1;
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                // Raw-string prefixes first: r"…", r#"…"#, br"…", b"…".
                if let Some(skip) = raw_string_len(&bytes[i..]) {
                    line += count_lines(&bytes[i..i + skip]);
                    i += skip;
                    continue;
                }
                let start = i;
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Ident(bytes[start..i].iter().collect()),
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Ident(bytes[start..i].iter().collect()),
                });
            }
            other => {
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Punct(other),
                });
                i += 1;
            }
        }
    }
    out
}

/// If `chars` starts a (byte) string or raw (byte) string literal prefixed
/// by `r`/`b`/`br`, return its total length in chars; `None` otherwise.
fn raw_string_len(chars: &[char]) -> Option<usize> {
    let mut j = 0usize;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    let raw = chars.get(j) == Some(&'r');
    if raw {
        j += 1;
    }
    if raw {
        // Count the `#` fence.
        let mut hashes = 0usize;
        while chars.get(j + hashes) == Some(&'#') {
            hashes += 1;
        }
        if chars.get(j + hashes) != Some(&'"') {
            return None;
        }
        let mut k = j + hashes + 1;
        // Scan for `"` followed by `hashes` `#`s.
        'scan: while k < chars.len() {
            if chars[k] == '"' {
                for h in 0..hashes {
                    if chars.get(k + 1 + h) != Some(&'#') {
                        k += 1;
                        continue 'scan;
                    }
                }
                return Some(k + 1 + hashes);
            }
            k += 1;
        }
        Some(chars.len())
    } else if j == 1 && chars.first() == Some(&'b') && chars.get(1) == Some(&'"') {
        // Byte string b"…" with escapes.
        let mut k = 2usize;
        while k < chars.len() {
            match chars[k] {
                '\\' => k += 2,
                '"' => return Some(k + 1),
                _ => k += 1,
            }
        }
        Some(chars.len())
    } else {
        None
    }
}

/// Given the index of an opening `{` or `(` token, return the index one past
/// its matching closer (nesting count of that bracket kind over the token
/// stream), or `tokens.len()` if unbalanced.
pub fn matching_close(tokens: &[Token], open: usize) -> usize {
    let (opener, closer) = match tokens[open].kind {
        TokKind::Punct('(') => ('(', ')'),
        _ => ('{', '}'),
    };
    debug_assert!(tokens[open].is_punct(opener));
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(opener) {
            depth += 1;
        } else if t.is_punct(closer) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn tokens_carry_lines_and_comments_are_separate() {
        let out = lex("let a = 1;\n// note: b\nlet b = 2;");
        assert_eq!(out.comments.len(), 1);
        assert_eq!(out.comments[0].line, 2);
        assert!(!out.comments[0].doc);
        let b = out.tokens.iter().find(|t| t.ident() == Some("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn strings_and_chars_are_skipped_lifetimes_are_not_strings() {
        let src = r#"let s = "Ordering::Relaxed"; let c = '"'; fn f<'a>(x: &'a str) {}"#;
        let ids = idents(src);
        assert!(!ids.contains(&"Ordering".to_string()));
        assert!(!ids.contains(&"Relaxed".to_string()));
        assert!(ids.contains(&"str".to_string()), "{ids:?}");
    }

    #[test]
    fn escaped_chars_and_quote_chars_do_not_derail() {
        let ids = idents(r"let a = '\''; let b = '\n'; let c = 'x'; after");
        assert!(ids.contains(&"after".to_string()), "{ids:?}");
    }

    #[test]
    fn raw_strings_with_fencing_are_skipped() {
        let src = "let s = r#\"thread::sleep \"quoted\" inside\"#; let t = r\"Instant::now\"; end";
        let ids = idents(src);
        assert!(!ids.contains(&"sleep".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(ids.contains(&"end".to_string()));
    }

    #[test]
    fn byte_strings_are_skipped() {
        let ids = idents("let a = b\"compare_exchange\"; let c = br\"cas\"; tail");
        assert!(!ids.contains(&"compare_exchange".to_string()));
        assert!(ids.contains(&"tail".to_string()));
    }

    #[test]
    fn nested_block_comments_and_doc_detection() {
        let out = lex("/* outer /* inner */ still */ code\n/// doc line\n//! inner doc");
        // The two consecutive doc lines merge into one logical comment.
        assert_eq!(out.comments.len(), 2);
        assert!(!out.comments[0].doc);
        assert!(out.comments[1].doc);
        assert_eq!(out.comments[1].line, 2);
        assert_eq!(out.comments[1].end_line, 3);
        assert_eq!(idents("/* x */ code"), vec!["code"]);
    }

    #[test]
    fn multiline_block_comment_advances_lines() {
        let out = lex("/* a\nb\nc */ token");
        assert_eq!(out.comments[0].line, 1);
        assert_eq!(out.comments[0].end_line, 3);
        assert_eq!(out.tokens[0].line, 3);
    }

    #[test]
    fn brace_matching() {
        let out = lex("loop { a { b } c } d");
        let open = out.tokens.iter().position(|t| t.is_punct('{')).unwrap();
        let end = matching_close(&out.tokens, open);
        assert_eq!(out.tokens[end].ident(), Some("d"));
    }
}
