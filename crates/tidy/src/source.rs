//! Lexical model of one Rust source file.
//!
//! The lints are plain line analyses, but a naive `line.contains(..)` scan
//! would fire on pattern names inside comments, doc prose, and string
//! literals (this crate's own lint tables would trip every lint). So each
//! file is first split by a small lexer into three parallel views:
//!
//! * `code` — the source with every comment and every string/char literal
//!   body blanked out (delimiters kept, so `("` still reads as `("`),
//! * `comments` — the comment segments on each line, tagged plain vs doc
//!   (directives live only in plain `//` comments; doc prose never counts),
//! * `in_test_region` — per-line flag for `#[cfg(test)]` items, computed by
//!   brace tracking over the sanitized code.
//!
//! The lexer understands line/doc comments, nested block comments, string
//! escapes, raw strings (`r#".."#`), byte strings, and the char-literal vs
//! lifetime ambiguity (`'x'` vs `'x`). It does not expand macros or parse
//! items — tidy is a heuristic contract checker, not a compiler.

/// Where a comment segment came from; only `Plain` line comments may carry
/// `tidy:allow` directives, so documenting the directive syntax in rustdoc
/// prose does not create a (stale) directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommentKind {
    /// `// ..` (including `////` dividers).
    Plain,
    /// `/// ..` or `//! ..`.
    Doc,
    /// `/* .. */`, one segment per line spanned.
    Block,
    /// `/** .. */` or `/*! .. */`.
    DocBlock,
}

/// One comment segment on one line.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Segment origin.
    pub kind: CommentKind,
    /// Text after the opening delimiter (and before `*/` for blocks).
    pub text: String,
}

/// An inline suppression: `// tidy:allow(lint-name): reason`.
#[derive(Debug, Clone)]
pub struct Directive {
    /// 1-based line the directive comment sits on.
    pub line: usize,
    /// Lint name inside the parentheses.
    pub lint: String,
    /// Justification after the colon (may be empty — reported as bad-allow).
    pub reason: String,
    /// Missing `(name)` / `:` syntax entirely.
    pub malformed: bool,
    /// 1-based line whose findings this directive suppresses: its own line
    /// when trailing code, otherwise the next line carrying code. `None`
    /// when no such line exists (always stale).
    pub target: Option<usize>,
}

/// A parsed source file ready for linting.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (stable across hosts).
    pub rel_path: String,
    /// Owning crate directory name (`iputil`, `tidy`, …; `ipv6view` for the
    /// facade's root `src/`/`examples/`/`tests/`).
    pub crate_name: String,
    /// File lives under a `tests/`, `benches/`, or `examples/` directory.
    pub is_test_file: bool,
    /// File is a binary target root (`main.rs` or under `src/bin/`).
    pub is_bin: bool,
    /// Sanitized code lines (comments and literal bodies blanked).
    pub code: Vec<String>,
    /// Comment segments per line (parallel to `code`).
    pub comments: Vec<Vec<Comment>>,
    /// Per-line: inside a `#[cfg(test)]` item (parallel to `code`).
    pub in_test_region: Vec<bool>,
    /// All `tidy:allow` directives found in plain line comments.
    pub directives: Vec<Directive>,
}

impl SourceFile {
    /// Lex `text` into the line views and scan for directives.
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        let (code, comments) = sanitize(text);
        let in_test_region = test_regions(&code);
        let directives = find_directives(&code, &comments);
        let rel = rel_path.replace('\\', "/");
        let crate_name = match rel.strip_prefix("crates/") {
            Some(rest) => rest.split('/').next().unwrap_or("unknown").to_string(),
            None => "ipv6view".to_string(),
        };
        let is_test_file = ["/tests/", "/benches/", "/examples/"]
            .iter()
            .any(|seg| rel.contains(seg))
            || rel.starts_with("tests/")
            || rel.starts_with("examples/");
        let is_bin = rel.ends_with("/main.rs") || rel.contains("/src/bin/");
        SourceFile {
            rel_path: rel,
            crate_name,
            is_test_file,
            is_bin,
            code,
            comments,
            in_test_region,
            directives,
        }
    }

    /// Is the (1-based) line test code — either a test file or inside a
    /// `#[cfg(test)]` region?
    pub fn is_test_line(&self, line: usize) -> bool {
        self.is_test_file || self.in_test_region.get(line.wrapping_sub(1)) == Some(&true)
    }

    /// Do the comments on the (1-based) lines `line-back ..= line` mention
    /// `needle`? Used for the `SAFETY:` adjacency check.
    pub fn comment_nearby(&self, line: usize, back: usize, needle: &str) -> bool {
        let end = line.min(self.comments.len());
        let start = end.saturating_sub(back + 1);
        self.comments[start..end]
            .iter()
            .flatten()
            .any(|c| c.text.contains(needle))
    }
}

/// Does `token` occur in `line` with non-identifier characters (or the line
/// edge) on both sides?
pub fn has_word(line: &str, token: &str) -> bool {
    let bytes = line.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(pos) = line[from..].find(token) {
        let at = from + pos;
        let pre_ok = at == 0 || !is_ident(bytes[at - 1]);
        let end = at + token.len();
        let post_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if pre_ok && post_ok {
            return true;
        }
        from = at + token.len().max(1);
    }
    false
}

#[derive(Debug, Clone, Copy)]
enum State {
    Code,
    /// `// ..` until end of line.
    Line,
    /// `/* .. */`, possibly nested.
    Block {
        depth: u32,
        kind: CommentKind,
    },
    /// `".."` / `b".."`.
    Str,
    /// `r##".."##` with the given number of hashes.
    RawStr {
        hashes: usize,
    },
    /// `'..'` char or byte literal.
    Char,
}

/// Split `text` into sanitized code lines and per-line comment segments.
fn sanitize(text: &str) -> (Vec<String>, Vec<Vec<Comment>>) {
    let chars: Vec<char> = text.chars().collect();
    let mut code_lines: Vec<String> = Vec::new();
    let mut comment_lines: Vec<Vec<Comment>> = Vec::new();
    let mut code = String::new();
    let mut segs: Vec<Comment> = Vec::new();
    let mut cur: Option<Comment> = None;
    let mut state = State::Code;
    let mut i = 0;

    // Could the raw-string / byte-string prefix starting at `at` be a prefix
    // rather than part of an identifier?
    let prefix_ok = |at: usize| at == 0 || !chars[at - 1].is_alphanumeric() && chars[at - 1] != '_';
    // Length of a raw-string opener `r#*"` at `at` (after the `r`), if any.
    let raw_open = |at: usize| -> Option<usize> {
        let mut h = 0;
        while chars.get(at + h) == Some(&'#') {
            h += 1;
        }
        (chars.get(at + h) == Some(&'"')).then_some(h)
    };

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            if let State::Line = state {
                state = State::Code;
            }
            if let Some(seg) = cur.take() {
                segs.push(seg);
                // A block comment keeps collecting on the next line.
                if let State::Block { kind, .. } = state {
                    cur = Some(Comment {
                        kind,
                        text: String::new(),
                    });
                }
            }
            code_lines.push(std::mem::take(&mut code));
            comment_lines.push(std::mem::take(&mut segs));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && next == Some('/') {
                    let third = chars.get(i + 2).copied();
                    let fourth = chars.get(i + 3).copied();
                    let kind = if (third == Some('/') && fourth != Some('/')) || third == Some('!')
                    {
                        CommentKind::Doc
                    } else {
                        CommentKind::Plain
                    };
                    cur = Some(Comment {
                        kind,
                        text: String::new(),
                    });
                    state = State::Line;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    let third = chars.get(i + 2).copied();
                    let kind = if third == Some('*') || third == Some('!') {
                        CommentKind::DocBlock
                    } else {
                        CommentKind::Block
                    };
                    cur = Some(Comment {
                        kind,
                        text: String::new(),
                    });
                    state = State::Block { depth: 1, kind };
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    state = State::Str;
                    i += 1;
                } else if c == 'r' && prefix_ok(i) && raw_open(i + 1).is_some() {
                    let hashes = raw_open(i + 1).unwrap_or(0);
                    code.push('"');
                    state = State::RawStr { hashes };
                    i += 2 + hashes;
                } else if c == 'b' && prefix_ok(i) && next == Some('"') {
                    code.push('"');
                    state = State::Str;
                    i += 2;
                } else if c == 'b' && prefix_ok(i) && next == Some('r') && raw_open(i + 2).is_some()
                {
                    let hashes = raw_open(i + 2).unwrap_or(0);
                    code.push('"');
                    state = State::RawStr { hashes };
                    i += 3 + hashes;
                } else if c == 'b' && prefix_ok(i) && next == Some('\'') {
                    code.push_str("''");
                    state = State::Char;
                    i += 2;
                } else if c == '\'' {
                    // Char literal vs lifetime: `'\..` and `'x'` are
                    // literals; anything else (`'a`, `'static`) a lifetime.
                    if next == Some('\\') {
                        code.push_str("''");
                        state = State::Char;
                        i += 1;
                    } else if chars.get(i + 2) == Some(&'\'') && next != Some('\'') {
                        code.push_str("''");
                        i += 3;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            State::Line => {
                if let Some(seg) = cur.as_mut() {
                    seg.text.push(c);
                }
                i += 1;
            }
            State::Block { depth, kind } => {
                if c == '/' && next == Some('*') {
                    state = State::Block {
                        depth: depth + 1,
                        kind,
                    };
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    if depth == 1 {
                        if let Some(seg) = cur.take() {
                            segs.push(seg);
                        }
                        state = State::Code;
                    } else {
                        state = State::Block {
                            depth: depth - 1,
                            kind,
                        };
                    }
                    i += 2;
                } else {
                    if let Some(seg) = cur.as_mut() {
                        seg.text.push(c);
                    }
                    i += 1;
                }
            }
            State::Str => {
                // An escaped newline continues the string on the next line:
                // leave the `\n` to the line bookkeeping above so line
                // numbers stay aligned with the source.
                if c == '\\' && next != Some('\n') {
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr { hashes } => {
                if c == '"' && (0..hashes).all(|h| chars.get(i + 1 + h) == Some(&'#')) {
                    code.push('"');
                    state = State::Code;
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
            }
            State::Char => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    if let Some(seg) = cur.take() {
        segs.push(seg);
    }
    if !code.is_empty() || !segs.is_empty() {
        code_lines.push(code);
        comment_lines.push(segs);
    }
    (code_lines, comment_lines)
}

/// Mark the lines of every `#[cfg(test)]` item by brace tracking over the
/// sanitized code (string/char bodies are already blanked, so every brace
/// seen is structural).
fn test_regions(code: &[String]) -> Vec<bool> {
    let mut flags = vec![false; code.len()];
    let mut li = 0;
    while li < code.len() {
        if !code[li].contains("#[cfg(test)]") {
            li += 1;
            continue;
        }
        // Walk forward to the item's opening `{`; a `;` first means an
        // item with no body (e.g. a `use`) — mark just those lines.
        let mut depth: i32 = 0;
        let mut opened = false;
        let mut lj = li;
        'scan: while lj < code.len() && (opened || lj - li <= 5) {
            let seg = if lj == li {
                // Skip the attribute itself so `(` `)` inside it are ignored.
                match code[lj].find("#[cfg(test)]") {
                    Some(p) => &code[lj][p + "#[cfg(test)]".len()..],
                    None => code[lj].as_str(),
                }
            } else {
                code[lj].as_str()
            };
            for ch in seg.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            flags[li..=lj].iter_mut().for_each(|f| *f = true);
                            li = lj;
                            break 'scan;
                        }
                    }
                    ';' if !opened => {
                        flags[li..=lj].iter_mut().for_each(|f| *f = true);
                        li = lj;
                        break 'scan;
                    }
                    _ => {}
                }
            }
            lj += 1;
        }
        li += 1;
    }
    flags
}

/// Scan plain line comments for `tidy:allow(lint): reason` directives and
/// resolve each one's target line.
fn find_directives(code: &[String], comments: &[Vec<Comment>]) -> Vec<Directive> {
    let mut out = Vec::new();
    for (idx, segs) in comments.iter().enumerate() {
        for seg in segs {
            if seg.kind != CommentKind::Plain {
                continue;
            }
            let text = seg.text.trim_start();
            let Some(rest) = text.strip_prefix("tidy:allow") else {
                continue;
            };
            let line = idx + 1;
            let (lint, reason, malformed) = match parse_allow(rest) {
                Some((l, r)) => (l, r, false),
                None => (String::new(), String::new(), true),
            };
            let target = if !code[idx].trim().is_empty() {
                Some(line)
            } else {
                // Standalone comment: suppresses the next line carrying
                // code (skipping further comment-only/blank lines).
                code[idx + 1..]
                    .iter()
                    .position(|l| !l.trim().is_empty())
                    .map(|off| line + 1 + off)
            };
            out.push(Directive {
                line,
                lint,
                reason,
                malformed,
                target,
            });
        }
    }
    out
}

/// Parse the `(lint-name): reason` tail of a directive.
fn parse_allow(rest: &str) -> Option<(String, String)> {
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let lint = rest[..close].trim().to_string();
    if lint.is_empty() {
        return None;
    }
    let after = rest[close + 1..].trim_start();
    let reason = after.strip_prefix(':')?.trim().to_string();
    Some((lint, reason))
}
