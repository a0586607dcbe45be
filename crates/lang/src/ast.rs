//! Abstract syntax of the mini loop language.
//!
//! A program is a set of array declarations followed by one `for` loop
//! whose body reads and writes the arrays — the shape of every loop the
//! paper's run-time pass transforms.
//!
//! ```text
//! array A[100];                 # classification decided by analysis
//! array B[100] = 1 : untested;  # explicit override + initial value
//! array Y[10] : reduction(+);
//!
//! for i in 0..100 {
//!     let v = A[i - 1] + B[i];
//!     if v > 3 { A[i] = v * 0.5; } else { A[i] = i; }
//!     Y[i % 10] += v;
//! }
//! ```

/// A source position (1-based line and column) carried by the array
/// references and guards that dependence diagnostics need to point at.
///
/// Spans intentionally do **not** participate in equality: two ASTs
/// that differ only in where their tokens sat in the source are the
/// same program (the pretty-printer round-trip relies on this).
#[derive(Clone, Copy, Debug, Default, Eq)]
pub struct Span {
    /// 1-based source line (0 = synthesized, no source position).
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

impl PartialEq for Span {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Span {
    /// A span at the given position.
    pub fn at(line: u32, col: u32) -> Self {
        Span { line, col }
    }

    /// The span of a synthesized node with no source position.
    pub fn none() -> Self {
        Span::default()
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "<synthesized>")
        } else {
            write!(f, "{}:{}", self.line, self.col)
        }
    }
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%` (computed on rounded integers)
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (non-zero = true)
    And,
    /// `||`
    Or,
}

/// Expressions. Scalars are `f64`; booleans are `1.0` / `0.0`.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Num(f64),
    /// The loop variable.
    LoopVar,
    /// The conditionally-incremented induction counter (induction
    /// programs only — e.g. EXTEND's LSTTRK).
    Counter,
    /// A `let`-bound local.
    Local(usize),
    /// `A[idx]` read; `array` indexes the declaration list.
    Read {
        /// Array declaration index.
        array: usize,
        /// Subscript expression.
        index: Box<Expr>,
        /// Source position of the array name.
        span: Span,
    },
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary negation `-e`.
    Neg(Box<Expr>),
    /// Logical not `!e`.
    Not(Box<Expr>),
    /// Intrinsic call: `min(a, b)`, `max(a, b)`, `abs(x)`, `sqrt(x)`,
    /// `floor(x)`.
    Call {
        /// Which intrinsic.
        func: Intrinsic,
        /// Arguments (arity checked at parse time).
        args: Vec<Expr>,
    },
}

/// Built-in numeric functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Intrinsic {
    /// Two-argument minimum.
    Min,
    /// Two-argument maximum.
    Max,
    /// Absolute value.
    Abs,
    /// Square root.
    Sqrt,
    /// Floor.
    Floor,
}

/// Statements.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `let x = e;` — binds local slot `slot`.
    Let {
        /// Local slot index.
        slot: usize,
        /// Bound expression.
        expr: Expr,
    },
    /// `A[idx] = e;`
    Assign {
        /// Array declaration index.
        array: usize,
        /// Subscript.
        index: Expr,
        /// Value.
        expr: Expr,
        /// Source position of the array name.
        span: Span,
    },
    /// `A[idx] += e;` or `A[idx] *= e;` — the reduction-shaped update.
    Update {
        /// Array declaration index.
        array: usize,
        /// Subscript.
        index: Expr,
        /// `+` or `*`.
        op: UpdateOp,
        /// Delta expression.
        expr: Expr,
        /// Source position of the array name.
        span: Span,
    },
    /// `bump NAME;` — conditionally increment the induction counter.
    Bump,
    /// `break if c;` — premature loop exit (DCDCMP loop-70 pattern):
    /// when `c` is non-zero this iteration is the last executed one.
    Break {
        /// Exit condition.
        cond: Expr,
    },
    /// `if c { … } else { … }`
    If {
        /// Condition (non-zero = taken).
        cond: Expr,
        /// Then-branch statements.
        then_body: Vec<Stmt>,
        /// Else-branch statements.
        else_body: Vec<Stmt>,
        /// Source position of the `if` keyword (guard diagnostics).
        span: Span,
    },
}

/// The operator of a compound update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOp {
    /// `+=`
    Add,
    /// `*=`
    Mul,
}

impl UpdateOp {
    /// The operator's symbol without the `=`: `+` or `*`.
    pub fn symbol(self) -> &'static str {
        match self {
            UpdateOp::Add => "+",
            UpdateOp::Mul => "*",
        }
    }
}

/// Explicit classification override on a declaration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KindHint {
    /// Force the LRPD test.
    Tested,
    /// Assert static safety (checkpointed if written).
    Untested,
    /// Force speculative reduction with `+` or `*`.
    Reduction(UpdateOp),
}

/// One array declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayDeclAst {
    /// Name.
    pub name: String,
    /// Element count.
    pub size: usize,
    /// Initial value of every element.
    pub init: f64,
    /// Optional explicit classification.
    pub hint: Option<KindHint>,
    /// Declaration line (diagnostics).
    pub line: u32,
}

/// One `for` loop of a program.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopNest {
    /// Loop variable name (diagnostics only; the body uses
    /// [`Expr::LoopVar`]).
    pub loop_var: String,
    /// Iteration range `lo..hi`.
    pub range: (usize, usize),
    /// Per-iteration virtual cost (the optional `cost N;` directive
    /// preceding the loop).
    pub cost: f64,
    /// Loop body.
    pub body: Vec<Stmt>,
    /// Number of `let` slots used by the body.
    pub num_locals: usize,
    /// Source position of the `for` keyword (diagnostics).
    pub span: Span,
}

/// A parsed program: array/scalar declarations followed by one or more
/// loops executed in sequence over the shared arrays.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// Array declarations, in order (their index is the array id).
    pub arrays: Vec<ArrayDeclAst>,
    /// The induction counter, when declared: `(name, initial value)`.
    /// Programs with a counter compile to the EXTEND two-pass scheme.
    pub counter: Option<(String, usize)>,
    /// The loops, in program order.
    pub loops: Vec<LoopNest>,
}
