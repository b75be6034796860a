//! Byte-offset spans and a source map for line/column rendering.

use std::fmt;

/// A half-open byte range `[start, end)` into a source string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl Span {
    /// A span that points nowhere; used for synthesized nodes.
    pub const DUMMY: Span = Span { start: 0, end: 0 };

    /// Creates a span covering `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: u32, end: u32) -> Self {
        assert!(start <= end, "span start {start} exceeds end {end}");
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    #[must_use]
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// The same span `by` bytes later (earlier when `by` is negative), for
    /// text that moved within its source.
    ///
    /// # Panics
    ///
    /// Panics if the span would start before offset 0 or end past
    /// `u32::MAX`.
    #[must_use]
    pub fn shifted(self, by: i64) -> Span {
        let at = |x: u32| u32::try_from(i64::from(x) + by).expect("shifted span stays in range");
        Span {
            start: at(self.start),
            end: at(self.end),
        }
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// Whether the span covers zero bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// A 1-based line/column position, for error rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineCol {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in bytes).
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Maps byte offsets back to line/column positions in a single source file.
#[derive(Debug, Clone)]
pub struct SourceMap {
    src: String,
    /// Byte offsets at which each line starts; `line_starts[0] == 0`.
    line_starts: Vec<u32>,
}

impl SourceMap {
    /// Builds a source map over `src`.
    pub fn new(src: impl Into<String>) -> Self {
        let src = src.into();
        let mut line_starts = vec![0u32];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        SourceMap { src, line_starts }
    }

    /// The underlying source text.
    pub fn source(&self) -> &str {
        &self.src
    }

    /// The text covered by `span`, or `""` when out of bounds.
    pub fn snippet(&self, span: Span) -> &str {
        self.src
            .get(span.start as usize..span.end as usize)
            .unwrap_or("")
    }

    /// Line/column of the byte offset `pos`.
    pub fn line_col(&self, pos: u32) -> LineCol {
        let line_idx = match self.line_starts.binary_search(&pos) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        LineCol {
            line: line_idx as u32 + 1,
            col: pos - self.line_starts[line_idx] + 1,
        }
    }

    /// The full text of the (1-based) line `line`, without its newline.
    pub fn line_text(&self, line: u32) -> &str {
        let idx = (line - 1) as usize;
        let start = self.line_starts[idx] as usize;
        let end = self
            .line_starts
            .get(idx + 1)
            .map(|&e| e as usize)
            .unwrap_or(self.src.len());
        self.src[start..end].trim_end_matches('\n')
    }

    /// Renders a caret diagnostic for `span` with a one-line `msg`.
    pub fn render(&self, span: Span, msg: &str) -> String {
        let lc = self.line_col(span.start);
        let line = self.line_text(lc.line);
        let caret_len =
            (span.len().max(1) as usize).min(line.len().saturating_sub(lc.col as usize - 1).max(1));
        format!(
            "error: {msg}\n --> {lc}\n  |\n  | {line}\n  | {}{}",
            " ".repeat(lc.col as usize - 1),
            "^".repeat(caret_len),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_join_and_len() {
        let a = Span::new(2, 5);
        let b = Span::new(7, 9);
        assert_eq!(a.to(b), Span::new(2, 9));
        assert_eq!(b.to(a), Span::new(2, 9));
        assert_eq!(a.shifted(3), Span::new(5, 8));
        assert_eq!(a.shifted(-2), Span::new(0, 3));
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(Span::DUMMY.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn span_rejects_inverted() {
        let _ = Span::new(5, 2);
    }

    #[test]
    fn line_col_lookup() {
        let sm = SourceMap::new("ab\ncd\n\nefg");
        assert_eq!(sm.line_col(0), LineCol { line: 1, col: 1 });
        assert_eq!(sm.line_col(1), LineCol { line: 1, col: 2 });
        assert_eq!(sm.line_col(3), LineCol { line: 2, col: 1 });
        assert_eq!(sm.line_col(6), LineCol { line: 3, col: 1 });
        assert_eq!(sm.line_col(7), LineCol { line: 4, col: 1 });
        assert_eq!(sm.line_col(9), LineCol { line: 4, col: 3 });
    }

    #[test]
    fn line_text_and_snippet() {
        let sm = SourceMap::new("let x = 1\nin x");
        assert_eq!(sm.line_text(1), "let x = 1");
        assert_eq!(sm.line_text(2), "in x");
        assert_eq!(sm.snippet(Span::new(4, 5)), "x");
    }

    #[test]
    fn render_contains_caret() {
        let sm = SourceMap::new("foo bar");
        let out = sm.render(Span::new(4, 7), "bad identifier");
        assert!(out.contains("bad identifier"));
        assert!(out.contains("^^^"));
        assert!(out.contains("1:5"));
    }
}
