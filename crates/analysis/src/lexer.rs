//! A small hand-rolled Rust lexer: exactly the token stream the lint
//! rules need, and nothing more.
//!
//! This is deliberately **not** a parser. The rules in
//! [`crate::rules`] are token-pattern checks (`Ordering::Relaxed`
//! without a comment, `.partial_cmp(..).unwrap()`, `buf[i]` in `store/`),
//! so the lexer's job is to get four things exactly right — everything
//! a grep-based checker gets wrong:
//!
//! 1. **Comments are not code.** Line comments, doc comments and
//!    (nested) block comments are lifted out of the token stream into a
//!    side table with line spans, so `// the old partial_cmp().unwrap()
//!    panicked here` never fires a rule, while justification comments
//!    remain checkable.
//! 2. **Literals are not code.** String, raw-string, byte-string and
//!    char literals are single tokens: `".unwrap()"` inside a
//!    diagnostic message is data, not a lint violation.
//! 3. **Lifetimes are not char literals.** `'a` and `'static` must not
//!    desynchronise the literal scanner (a naive one treats the rest of
//!    the file as the inside of a char).
//! 4. **Test regions are exempt.** `#[cfg(test)]` / `#[test]` items and
//!    `mod tests { ... }` blocks are tracked by brace matching, and every
//!    token inside carries `in_test = true`; rules skip them.

/// The kind of one lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unsafe`, `Ordering`, `unwrap`, ...).
    Ident(String),
    /// A lifetime such as `'a` or `'static` (the leading `'` included).
    Lifetime(String),
    /// A string / raw-string / byte-string / char literal (content
    /// dropped — rules never look inside).
    Literal,
    /// A numeric literal (`0`, `0xff`, `1.5e3`, `8usize`).
    Number,
    /// A single punctuation character (`{`, `[`, `:`, `.`, `!`, ...).
    Punct(char),
}

/// One token with its location and test-region flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    /// 1-indexed line the token starts on.
    pub line: usize,
    /// Whether the token sits inside a `#[cfg(test)]` / `#[test]` item
    /// or a `mod tests { ... }` block.
    pub in_test: bool,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(name) => Some(name),
            _ => None,
        }
    }

    /// Whether this token is the exact identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.ident() == Some(name)
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// The line span of one comment (line, doc or block) lifted out of the
/// token stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-indexed first line of the comment.
    pub start_line: usize,
    /// 1-indexed last line of the comment (equal to `start_line` for
    /// line comments and single-line block comments).
    pub end_line: usize,
}

/// The lexed form of one source file.
#[derive(Debug)]
pub struct LexedFile {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

impl LexedFile {
    /// Whether any comment covers (part of) 1-indexed `line`.
    pub fn comment_on_line(&self, line: usize) -> bool {
        self.comments
            .iter()
            .any(|c| c.start_line <= line && line <= c.end_line)
    }
}

/// Lex `source` into tokens and comments. The lexer never
/// fails: malformed input (an unterminated string, say) degrades into
/// best-effort tokens rather than an error, because a lint tool must
/// keep walking the rest of the workspace.
pub fn lex(source: &str) -> LexedFile {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    tokens: Vec<Token>,
    comments: Vec<Comment>,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            src: source.as_bytes(),
            pos: 0,
            line: 1,
            tokens: Vec::new(),
            comments: Vec::new(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    /// Advance one byte, tracking the line counter.
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn push(&mut self, kind: TokenKind, line: usize) {
        self.tokens.push(Token {
            kind,
            line,
            in_test: false, // filled in by the region pass below
        });
    }

    fn run(mut self) -> LexedFile {
        while let Some(b) = self.peek() {
            let line = self.line;
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek_at(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek_at(1) == Some(b'*') => self.block_comment(),
                b'r' | b'b' | b'c' if self.raw_or_prefixed_string() => {}
                b'"' => self.string_literal(),
                b'\'' => self.char_or_lifetime(),
                b'0'..=b'9' => self.number(),
                b'A'..=b'Z' | b'a'..=b'z' | b'_' => self.ident(),
                other if other.is_ascii() => {
                    self.bump();
                    self.push(TokenKind::Punct(other as char), line);
                }
                _ => {
                    // a non-ASCII byte (inside an identifier we do not
                    // care about, or stray): skip the whole UTF-8 char
                    self.bump();
                    while self.peek().is_some_and(|b| b & 0xC0 == 0x80) {
                        self.bump();
                    }
                }
            }
        }
        mark_test_regions(&mut self.tokens);
        LexedFile {
            tokens: self.tokens,
            comments: self.comments,
        }
    }

    fn line_comment(&mut self) {
        let start = self.line;
        while self.peek().is_some_and(|b| b != b'\n') {
            self.bump();
        }
        self.comments.push(Comment {
            start_line: start,
            end_line: start,
        });
    }

    fn block_comment(&mut self) {
        let start = self.line;
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(), self.peek_at(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break, // unterminated: degrade gracefully
            }
        }
        self.comments.push(Comment {
            start_line: start,
            end_line: self.line,
        });
    }

    /// Try to lex a raw / byte / C string starting at the current `r`,
    /// `b` or `c`. Returns false (consuming nothing) when the prefix is
    /// actually an ordinary identifier such as `radius`.
    fn raw_or_prefixed_string(&mut self) -> bool {
        // recognised shapes: r", r#...", b", br", b', rb is not a thing,
        // c", cr#"
        let line = self.line;
        let mut saw_raw = false;
        let mut ahead = match self.peek() {
            Some(b'r') => {
                saw_raw = true;
                1
            }
            Some(b'b') | Some(b'c') => {
                if self.peek_at(1) == Some(b'r') {
                    saw_raw = true;
                    2
                } else {
                    1
                }
            }
            _ => return false,
        };
        let mut hashes = 0usize;
        if saw_raw {
            while self.peek_at(ahead) == Some(b'#') {
                hashes += 1;
                ahead += 1;
            }
        }
        match self.peek_at(ahead) {
            Some(b'"') => {}
            Some(b'\'') if !saw_raw => {
                // b'x' byte literal: delegate to the char scanner after
                // consuming the prefix
                self.bump();
                self.char_or_lifetime();
                return true;
            }
            _ => return false,
        }
        // consume prefix + opening quote
        for _ in 0..=ahead {
            self.bump();
        }
        if saw_raw {
            // raw string: ends at '"' followed by `hashes` hashes; no
            // escapes inside
            loop {
                match self.bump() {
                    None => break,
                    Some(b'"') => {
                        let mut matched = 0usize;
                        while matched < hashes && self.peek() == Some(b'#') {
                            self.bump();
                            matched += 1;
                        }
                        if matched == hashes {
                            break;
                        }
                    }
                    Some(_) => {}
                }
            }
        } else {
            self.string_body();
        }
        self.push(TokenKind::Literal, line);
        true
    }

    fn string_literal(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        self.string_body();
        self.push(TokenKind::Literal, line);
    }

    /// Consume an escaped string body up to and including the closing
    /// quote.
    fn string_body(&mut self) {
        loop {
            match self.bump() {
                None | Some(b'"') => break,
                Some(b'\\') => {
                    self.bump(); // the escaped character
                }
                Some(_) => {}
            }
        }
    }

    /// Disambiguate `'a'` (char literal) from `'a` / `'static`
    /// (lifetime): after the quote, an identifier run NOT followed by a
    /// closing quote is a lifetime.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        self.bump(); // opening '
        match self.peek() {
            Some(b'\\') => {
                // escaped char literal: '\n', '\'', '\u{1F600}'
                self.bump(); // the backslash
                self.bump(); // the escaped character (may itself be ')
                loop {
                    match self.bump() {
                        None | Some(b'\'') => break,
                        Some(_) => {}
                    }
                }
                self.push(TokenKind::Literal, line);
            }
            Some(c) if c == b'_' || c.is_ascii_alphabetic() => {
                let begin = self.pos;
                while self
                    .peek()
                    .is_some_and(|b| b == b'_' || b.is_ascii_alphanumeric())
                {
                    self.bump();
                }
                if self.peek() == Some(b'\'') {
                    // 'a' — a char literal after all
                    self.bump();
                    self.push(TokenKind::Literal, line);
                } else {
                    let name = String::from_utf8_lossy(&self.src[begin..self.pos]).into_owned();
                    self.push(TokenKind::Lifetime(format!("'{name}")), line);
                }
            }
            Some(_) => {
                // a non-identifier char literal: '#', '🦀', ' '
                self.bump();
                while self.peek().is_some_and(|b| b & 0xC0 == 0x80) {
                    self.bump(); // UTF-8 continuation bytes
                }
                if self.peek() == Some(b'\'') {
                    self.bump();
                }
                self.push(TokenKind::Literal, line);
            }
            None => self.push(TokenKind::Punct('\''), line),
        }
    }

    fn number(&mut self) {
        let line = self.line;
        // the exact numeric grammar does not matter to any rule: consume
        // the alphanumeric run (covers hex, suffixes like 0u64) plus
        // `.` digits for floats, then move on. `1..n` range syntax must
        // NOT swallow the dots: only a dot followed by a digit joins.
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            self.bump();
        }
        if self.peek() == Some(b'.') && self.peek_at(1).is_some_and(|b| b.is_ascii_digit()) {
            self.bump();
            while self
                .peek()
                .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
            {
                self.bump();
            }
        }
        self.push(TokenKind::Number, line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let begin = self.pos;
        while self
            .peek()
            .is_some_and(|b| b == b'_' || b.is_ascii_alphanumeric())
        {
            self.bump();
        }
        let name = String::from_utf8_lossy(&self.src[begin..self.pos]).into_owned();
        self.push(TokenKind::Ident(name), line);
    }
}

/// Mark every token inside a `#[cfg(test)]` / `#[test]` item or a
/// `mod tests { ... }` block as test code.
///
/// The tracker is a brace-matching pass: when a test attribute (or
/// `mod tests`) is seen, the *next* `{` opens a test region that closes
/// at its matching `}`. A `;` before the `{` cancels the pending marker
/// (`#[cfg(test)] use ...;` guards a single item with no body — nothing
/// to exempt beyond what the attribute already syntactically covers).
fn mark_test_regions(tokens: &mut [Token]) {
    let mut pending_test = false;
    // brace stack: true = this scope is (inside) a test region
    let mut stack: Vec<bool> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let in_test = stack.last().copied().unwrap_or(false);
        tokens[i].in_test = in_test || pending_test;
        match &tokens[i].kind {
            TokenKind::Punct('#') if !in_test => {
                // look for #[cfg(test)] or #[test] (possibly #[cfg(all(test, ...))])
                if let Some(end) = attribute_end(tokens, i) {
                    if attribute_mentions_test(&tokens[i..=end]) {
                        pending_test = true;
                    }
                    // tokens inside the attribute keep the current flag
                    for token in tokens.iter_mut().take(end + 1).skip(i) {
                        token.in_test = in_test || pending_test;
                    }
                    i = end + 1;
                    continue;
                }
            }
            TokenKind::Ident(name)
                if name == "mod"
                    && !in_test
                    && tokens.get(i + 1).is_some_and(|t| t.is_ident("tests")) =>
            {
                pending_test = true;
            }
            TokenKind::Punct('{') => {
                stack.push(in_test || pending_test);
                pending_test = false;
            }
            TokenKind::Punct('}') => {
                stack.pop();
            }
            TokenKind::Punct(';') if !stack.last().copied().unwrap_or(false) => {
                // an item ended without a body: drop the pending marker
                pending_test = false;
            }
            _ => {}
        }
        i += 1;
    }
}

/// If `tokens[start]` is `#` opening an attribute (`#[...]` or
/// `#![...]`), return the index of its closing `]`.
pub fn attribute_end(tokens: &[Token], start: usize) -> Option<usize> {
    if !tokens.get(start).is_some_and(|t| t.is_punct('#')) {
        return None;
    }
    let mut i = start + 1;
    if tokens.get(i).is_some_and(|t| t.is_punct('!')) {
        i += 1; // inner attribute #![...]
    }
    if !tokens.get(i).is_some_and(|t| t.is_punct('[')) {
        return None;
    }
    let mut depth = 0usize;
    for (j, token) in tokens.iter().enumerate().skip(i) {
        match token.kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Whether an attribute token slice spells a test gate: `#[test]`,
/// `#[cfg(test)]`, or any `cfg(...)` whose argument list mentions the
/// bare `test` flag (`#[cfg(all(test, feature = "x"))]`).
fn attribute_mentions_test(attr: &[Token]) -> bool {
    let idents: Vec<&str> = attr.iter().filter_map(Token::ident).collect();
    match idents.first() {
        Some(&"test") => true, // #[test] and #[tokio::test]-style shapes
        Some(&"cfg") => idents.contains(&"test"),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(file: &LexedFile) -> Vec<&str> {
        file.tokens.iter().filter_map(Token::ident).collect()
    }

    #[test]
    fn comments_are_lifted_out_of_the_token_stream() {
        let file = lex("let x = 1; // trailing .unwrap() mention\n/* block\n unwrap */ let y;\n");
        assert!(idents(&file).iter().all(|&s| s != "unwrap"));
        assert_eq!(file.comments.len(), 2);
        assert_eq!(file.comments[0].start_line, 1);
        assert_eq!(file.comments[1].start_line, 2);
        assert_eq!(file.comments[1].end_line, 3);
    }

    #[test]
    fn nested_block_comments_terminate_where_rustc_says() {
        let file = lex("/* outer /* inner */ still comment */ let code = 1;\n");
        assert_eq!(idents(&file), vec!["let", "code"]);
        assert_eq!(file.comments.len(), 1);
    }

    #[test]
    fn string_and_raw_string_contents_are_opaque() {
        let src = r####"let a = "has .unwrap() inside";
let b = r#"raw with "quote" and unwrap"#;
let c = br##"bytes ## inside"##;
let d = 'x';
"####;
        let file = lex(src);
        assert!(idents(&file).iter().all(|&s| s != "unwrap"));
        let literals = file
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .count();
        assert_eq!(literals, 4);
    }

    #[test]
    fn lifetimes_do_not_desynchronise_the_char_scanner() {
        let file = lex("fn f<'a>(x: &'a str) -> &'static str { let c = 'q'; x }\n");
        let lifetimes: Vec<&str> = file
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Lifetime(l) => Some(l.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a", "'static"]);
        // the 'q' char is one literal, and the trailing `x` survives
        assert!(file.tokens.iter().any(|t| t.is_ident("x")));
        assert_eq!(
            file.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Literal)
                .count(),
            1
        );
    }

    #[test]
    fn escaped_char_literals_including_quote() {
        let file = lex(r"let a = '\''; let b = '\n'; let c = '\u{1F600}';");
        assert_eq!(
            file.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Literal)
                .count(),
            3
        );
        assert_eq!(idents(&file), vec!["let", "a", "let", "b", "let", "c"]);
    }

    #[test]
    fn range_syntax_is_not_swallowed_by_float_scanning() {
        let file = lex("for i in 0..10 { a[i] = 1.5; }\n");
        let dots = file.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2, "0..10 keeps both range dots");
    }

    #[test]
    fn cfg_test_mod_is_marked_and_code_after_it_is_not() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn also_live() { y.unwrap(); }\n";
        let file = lex(src);
        let unwraps: Vec<(usize, bool)> = file
            .tokens
            .iter()
            .filter(|t| t.is_ident("unwrap"))
            .map(|t| (t.line, t.in_test))
            .collect();
        assert_eq!(unwraps, vec![(4, true), (6, false)]);
    }

    #[test]
    fn test_attribute_on_a_single_fn_is_scoped_to_that_fn() {
        let src = "#[test]\nfn t() { a.unwrap(); }\nfn live() { b.unwrap(); }\n";
        let file = lex(src);
        let unwraps: Vec<bool> = file
            .tokens
            .iter()
            .filter(|t| t.is_ident("unwrap"))
            .map(|t| t.in_test)
            .collect();
        assert_eq!(unwraps, vec![true, false]);
    }

    #[test]
    fn cfg_test_gating_a_use_item_does_not_leak_into_the_next_fn() {
        let src = "#[cfg(test)]\nuse std::sync::Mutex;\nfn live() { a.unwrap(); }\n";
        let file = lex(src);
        let unwrap = file
            .tokens
            .iter()
            .find(|t| t.is_ident("unwrap"))
            .expect("unwrap token");
        assert!(!unwrap.in_test, "the ; must cancel the pending marker");
    }

    #[test]
    fn byte_char_literals_lex_as_literals() {
        let file = lex("let nl = b'\\n'; let q = b'q'; let s = b\"bytes\";");
        assert_eq!(
            file.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Literal)
                .count(),
            3
        );
    }

    #[test]
    fn cfg_all_test_counts_as_a_test_gate() {
        let src = "#[cfg(all(test, feature = \"slow\"))]\nmod harness { fn f() { a.unwrap(); } }\n";
        let file = lex(src);
        let unwrap = file.tokens.iter().find(|t| t.is_ident("unwrap"));
        assert!(unwrap.is_some_and(|t| t.in_test));
    }
}
