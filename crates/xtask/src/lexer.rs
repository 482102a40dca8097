//! The v2 full-source lexer: one pass over the whole file, not a line
//! at a time.
//!
//! PR 3's line-oriented lexer carried literal/comment state across
//! lines by hand and could not represent structure at all — no token
//! stream, no spans, no way to match `Ordering :: Relaxed` or walk a
//! call's argument list. This module lexes the entire source into:
//!
//! * a flat [`Token`] stream (identifiers, lifetimes, numeric/string/
//!   char literals, punctuation, delimiters), each tagged with its
//!   0-based start line — the substrate for the token-tree layer
//!   ([`crate::tokens`]) and the item pass ([`crate::items`]);
//! * the per-line views the line-oriented rules consume ([`Line`]):
//!   the comment-stripped, literal-blanked `code` text, collected
//!   string contents, doc-comment text, and parsed
//!   `// beeps-lint: allow(…)` suppressions.
//!
//! The lexer understands nested block comments, cooked strings with
//! escapes (including multi-line bodies and `\`-continuations), raw
//! strings with any hash depth spanning any number of lines, byte and
//! raw-byte string prefixes (`b"…"`, `br#"…"#` — which the v1 lexer
//! mis-lexed as a cooked string and could leak into code context),
//! char-literal vs. lifetime disambiguation, and numeric literals.
//! It is still deliberately not a parser: macro-generated code is
//! invisible, which is fine for invariants about what first-party
//! *source* says.

/// A delimiter kind: `()`, `[]`, `{}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `(` … `)`
    Paren,
    /// `[` … `]`
    Bracket,
    /// `{` … `}`
    Brace,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`fn`, `Ordering`, `seed_from_u64`).
    Ident(String),
    /// A lifetime (`'static`), without the tick.
    Lifetime(String),
    /// An integer literal, verbatim (`42`, `0x9E37_79B9`, `1u64`).
    Int(String),
    /// A float literal, verbatim (`0.5`, `1.5e3`).
    Float(String),
    /// A string literal's contents (escapes kept raw, quotes dropped).
    Str(String),
    /// A char or byte literal (contents irrelevant to every rule).
    Char,
    /// A single punctuation character (`.`, `:`, `#`, `!`, …).
    Punct(char),
    /// An opening delimiter.
    Open(Delim),
    /// A closing delimiter.
    Close(Delim),
}

impl Tok {
    /// The identifier text, if this token is an identifier.
    #[must_use]
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True if this token is the identifier `s`.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.ident() == Some(s)
    }

    /// True if this token is the punctuation character `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tok::Punct(p) if *p == c)
    }
}

/// A token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 0-based line the token *starts* on.
    pub line: usize,
}

/// A `// beeps-lint: allow(rule[, rule…]) -- justification` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The rule IDs named inside `allow(…)`.
    pub rules: Vec<String>,
    /// The justification text after `--` (empty if missing — which is
    /// itself a lint finding; justifications are mandatory).
    pub justification: String,
    /// 1-based line the comment sits on.
    pub line: usize,
}

/// One lexed source line — the view the line-oriented rules consume.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// The original source text, trimmed (attribute-line detection).
    pub raw: String,
    /// Code view: comments stripped, literal contents blanked.
    pub code: String,
    /// String literals starting on this line (contents only).
    pub strings: Vec<String>,
    /// Suppression comments written on this line.
    pub suppressions: Vec<Suppression>,
    /// Doc-comment text (`///` / `//!` body) on this line, if any.
    pub doc: Option<String>,
    /// True if the line contains any non-comment, non-whitespace code.
    pub has_code: bool,
    /// True inside a `#[cfg(test)]` item (mod, fn, or impl — filled in
    /// by the item pass, see [`crate::items`]).
    pub in_test: bool,
}

/// The result of lexing one file: the token stream plus per-line views.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Every token, in source order.
    pub tokens: Vec<Token>,
    /// 0-indexed per-line views.
    pub lines: Vec<Line>,
}

/// Lexes `content` into tokens and per-line views.
#[must_use]
pub fn lex(content: &str) -> Lexed {
    let mut lx = Lexer {
        chars: content.chars().collect(),
        i: 0,
        line: 0,
        out: Lexed {
            tokens: Vec::new(),
            lines: content
                .lines()
                .map(|l| Line {
                    raw: l.trim().to_string(),
                    ..Line::default()
                })
                .collect(),
        },
    };
    lx.run();
    for line in &mut lx.out.lines {
        line.has_code = !line.code.trim().is_empty();
    }
    lx.out
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: usize,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, k: usize) -> Option<char> {
        self.chars.get(self.i + k).copied()
    }

    /// Consumes one char, tracking line numbers.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// Appends to the code view of line `line` (clamped for safety at EOF).
    fn push_code(&mut self, line: usize, c: char) {
        let clamped = line.min(self.out.lines.len().saturating_sub(1));
        if let Some(l) = self.out.lines.get_mut(clamped) {
            l.code.push(c);
        }
    }

    fn push_code_str(&mut self, line: usize, s: &str) {
        for c in s.chars() {
            self.push_code(line, c);
        }
    }

    fn emit(&mut self, tok: Tok, line: usize) {
        self.out.tokens.push(Token { tok, line });
    }

    fn run(&mut self) {
        while let Some(c) = self.peek(0) {
            match c {
                '\n' => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => {
                    self.bump();
                    self.cooked_string();
                }
                '\'' => self.char_or_lifetime(),
                c if c.is_ascii_digit() => self.number(),
                c if c.is_alphabetic() || c == '_' => self.ident_or_prefixed_string(),
                '(' | '[' | '{' | ')' | ']' | '}' => {
                    let line = self.line;
                    self.bump();
                    self.push_code(line, c);
                    let tok = match c {
                        '(' => Tok::Open(Delim::Paren),
                        '[' => Tok::Open(Delim::Bracket),
                        '{' => Tok::Open(Delim::Brace),
                        ')' => Tok::Close(Delim::Paren),
                        ']' => Tok::Close(Delim::Bracket),
                        _ => Tok::Close(Delim::Brace),
                    };
                    self.emit(tok, line);
                }
                c => {
                    let line = self.line;
                    self.bump();
                    self.push_code(line, c);
                    if !c.is_whitespace() {
                        self.emit(Tok::Punct(c), line);
                    }
                }
            }
        }
    }

    /// `// …` to end of line. Doc comments (`///`, `//!`) record their
    /// body for the panic-contract check; plain comments are offered to
    /// the suppression parser.
    fn line_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump();
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        if let Some(doc) = text.strip_prefix('/').or_else(|| text.strip_prefix('!')) {
            if let Some(l) = self.out.lines.get_mut(line) {
                l.doc = Some(doc.trim().to_string());
            }
        } else if let Some(s) = parse_suppression(&text, line + 1) {
            if let Some(l) = self.out.lines.get_mut(line) {
                l.suppressions.push(s);
            }
        }
    }

    /// `/* … */` with nesting, spanning any number of lines.
    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    /// A `"…"` string body; the opening quote is already consumed.
    /// Handles escapes and multi-line bodies. The code view gets the
    /// two quotes and nothing else.
    fn cooked_string(&mut self) {
        let start = self.line;
        self.push_code(start, '"');
        let mut buf = String::new();
        loop {
            match self.peek(0) {
                Some('\\') => {
                    buf.push('\\');
                    self.bump();
                    if let Some(e) = self.bump() {
                        buf.push(e);
                    }
                }
                Some('"') => {
                    let close = self.line;
                    self.bump();
                    self.push_code(close, '"');
                    break;
                }
                Some(c) => {
                    buf.push(c);
                    self.bump();
                }
                None => break,
            }
        }
        if let Some(l) = self.out.lines.get_mut(start) {
            l.strings.push(buf.clone());
        }
        self.emit(Tok::Str(buf), start);
    }

    /// A raw string body (`hashes` hashes deep); prefix, hashes, and
    /// the opening quote are already consumed. No escapes; closes at
    /// `"` followed by `hashes` hashes.
    fn raw_string(&mut self, hashes: usize) {
        let start = self.line;
        self.push_code(start, '"');
        let mut buf = String::new();
        loop {
            match self.peek(0) {
                Some('"') if (1..=hashes).all(|k| self.peek(k) == Some('#')) => {
                    let close = self.line;
                    self.bump();
                    for _ in 0..hashes {
                        self.bump();
                    }
                    self.push_code(close, '"');
                    break;
                }
                Some(c) => {
                    buf.push(c);
                    self.bump();
                }
                None => break,
            }
        }
        if let Some(l) = self.out.lines.get_mut(start) {
            l.strings.push(buf.clone());
        }
        self.emit(Tok::Str(buf), start);
    }

    /// `'x'` / `'\n'` char literals vs. `'static` lifetimes.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        if self.peek(1) == Some('\\') {
            // Escaped char literal: consume to the closing quote.
            self.bump();
            self.bump();
            while let Some(c) = self.bump() {
                if c == '\'' {
                    break;
                }
            }
            self.push_code_str(line, "' '");
            self.emit(Tok::Char, line);
        } else if self.peek(2) == Some('\'') && self.peek(1) != Some('\'') {
            // 'x'
            self.bump();
            self.bump();
            self.bump();
            self.push_code_str(line, "' '");
            self.emit(Tok::Char, line);
        } else {
            // Lifetime: keep the tick and the name in the code view.
            self.bump();
            self.push_code(line, '\'');
            let mut name = String::new();
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    name.push(c);
                    self.push_code(line, c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.emit(Tok::Lifetime(name), line);
        }
    }

    /// Numeric literal: integers (hex/oct/bin, underscores, suffixes)
    /// and floats (`1.5`, `2.0e3`). `0..n` stays integer + range.
    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                self.push_code(line, c);
                self.bump();
            } else {
                break;
            }
        }
        let mut float = false;
        if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            float = true;
            text.push('.');
            self.push_code(line, '.');
            self.bump();
            while let Some(c) = self.peek(0) {
                if c.is_ascii_alphanumeric() || c == '_' {
                    text.push(c);
                    self.push_code(line, c);
                    self.bump();
                } else {
                    break;
                }
            }
        }
        let tok = if float {
            Tok::Float(text)
        } else {
            Tok::Int(text)
        };
        self.emit(tok, line);
    }

    /// An identifier — or a string-literal prefix (`r`, `b`, `br`,
    /// `c`, `cr`) when a quote (after optional hashes for the raw
    /// forms) follows directly.
    fn ident_or_prefixed_string(&mut self) {
        let line = self.line;
        let mut name = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                name.push(c);
                self.bump();
            } else {
                break;
            }
        }
        let raw_prefix = matches!(name.as_str(), "r" | "br" | "cr");
        let cooked_prefix = matches!(name.as_str(), "b" | "c");
        if raw_prefix {
            let hashes = (0..).take_while(|&k| self.peek(k) == Some('#')).count();
            if self.peek(hashes) == Some('"') {
                // Raw string: the prefix and hashes stay out of the
                // code view (matching the v1 lexer's rendering).
                for _ in 0..=hashes {
                    self.bump();
                }
                self.raw_string(hashes);
                return;
            }
        }
        if cooked_prefix && self.peek(0) == Some('"') {
            self.push_code_str(line, &name);
            self.bump();
            self.cooked_string();
            return;
        }
        self.push_code_str(line, &name);
        self.emit(Tok::Ident(name), line);
    }
}

/// Parses `beeps-lint: allow(rule[, rule…]) -- justification` out of a
/// line-comment body. Returns `None` when the comment is not a
/// beeps-lint directive at all.
pub(crate) fn parse_suppression(comment: &str, lineno: usize) -> Option<Suppression> {
    let rest = comment.trim().strip_prefix("beeps-lint:")?.trim_start();
    let inner = rest.strip_prefix("allow(").and_then(|r| {
        r.find(')')
            .map(|close| (r[..close].to_string(), r[close + 1..].to_string()))
    });
    let (rules_text, tail) = match inner {
        Some(pair) => pair,
        // `beeps-lint:` without a well-formed `allow(…)`: surface it as
        // a suppression with no rules so the engine can flag it.
        None => (String::new(), rest.to_string()),
    };
    let rules: Vec<String> = rules_text
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let justification = tail
        .trim_start()
        .strip_prefix("--")
        .map(|j| j.trim().to_string())
        .unwrap_or_default();
    Some(Suppression {
        rules,
        justification,
        line: lineno,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_line_raw_string_is_contained() {
        let src = "pub fn help() -> &'static str {\n    r#\"usage\na HashMap inside\n\"#\n}\n";
        let lx = lex(src);
        assert!(!lx.lines[1].code.contains("HashMap"));
        assert!(!lx.lines[2].code.contains("HashMap"));
        assert_eq!(lx.lines[1].strings, vec!["usage\na HashMap inside\n"]);
        assert_eq!(lx.lines[3].code, "\"");
        assert!(lx.lines[4].code.contains('}'));
    }

    #[test]
    fn raw_byte_string_with_interior_quote() {
        // The v1 line lexer mis-lexed `br#"…"#` as a cooked string and
        // closed it at the first interior quote, leaking the rest.
        let src = "let s = br#\"say \"HashMap\" ok\"#; let t = 1;\n";
        let lx = lex(src);
        assert!(!lx.lines[0].code.contains("HashMap"));
        assert!(lx.lines[0].code.contains("let t"));
    }

    #[test]
    fn tokens_carry_lines_and_kinds() {
        let lx = lex("let x = 0x2A;\nm.load(Ordering::Relaxed);\n");
        let idents: Vec<_> = lx
            .tokens
            .iter()
            .filter_map(|t| t.tok.ident().map(|s| (s.to_string(), t.line)))
            .collect();
        assert!(idents.contains(&("Ordering".to_string(), 1)));
        assert!(idents.contains(&("Relaxed".to_string(), 1)));
        assert!(lx
            .tokens
            .iter()
            .any(|t| matches!(&t.tok, Tok::Int(s) if s == "0x2A")));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let lx = lex("let c = '\"'; let l: &'static str = \"x\"; let e = '\\n';\n");
        assert_eq!(lx.lines[0].strings, vec!["x"]);
        assert!(lx.lines[0].code.contains("&'static str"));
        assert!(lx
            .tokens
            .iter()
            .any(|t| matches!(&t.tok, Tok::Lifetime(n) if n == "static")));
        assert_eq!(
            lx.tokens
                .iter()
                .filter(|t| matches!(t.tok, Tok::Char))
                .count(),
            2
        );
    }

    #[test]
    fn doc_comments_are_recorded_not_code() {
        let lx = lex("/// # Panics\n/// Panics when empty.\npub fn f() {}\n");
        assert_eq!(lx.lines[0].doc.as_deref(), Some("# Panics"));
        assert!(!lx.lines[0].has_code);
        assert!(lx.lines[2].has_code);
    }
}
