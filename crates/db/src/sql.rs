//! A SQL front end for the aggregation query family of Figure 2.
//!
//! The paper motivates its work with SQL (`SELECT g, COUNT(*), SUM(v)
//! FROM r GROUP BY g`) and the TPC-H queries it dominates; this module
//! closes the loop by parsing exactly that query family into an
//! [`AggregateQuery`]:
//!
//! ```text
//! SELECT <group>, <agg> [, <agg>...]
//! FROM <table>
//! [WHERE <column> <cmp> <number>]
//! GROUP BY <group>
//! [HAVING <agg> <cmp> <number>]
//! [ORDER BY <group | agg> [ASC | DESC]]
//! [LIMIT <k>]
//! ```
//!
//! where `<agg>` is `COUNT(*)`, `SUM(col)`, `MIN(col)`, `MAX(col)` or
//! `AVG(col)` and `<cmp>` is `<>` / `!=` (native in the ISA's comparison
//! class, Table III) or `>` / `<` (composed with the arithmetic class's
//! `maximum` — see [`crate::filter`]). `=`, `<=` and `>=` remain
//! unsupported as *comparisons*: they would need a mask-complement
//! instruction.
//!
//! The `FROM` clause optionally names an inner equi-join:
//!
//! ```text
//! FROM <a> [INNER] JOIN <b> ON a.k = b.k [AND a.k2 = b.k2 ...]
//! ```
//!
//! Join keys must be table-qualified; `=` is accepted *only* in `ON`
//! (keys are equi-compared on the host hash table, not through the
//! vector ISA). With a join, every column reference elsewhere in the
//! statement may be qualified (`a.col`), and must be when the bare name
//! exists on both sides. See [`crate::JoinPlan`] for planning and
//! execution.
//!
//! The write path adds
//!
//! ```text
//! INSERT INTO <table> (<col> [, <col>...]) VALUES (<num>, ...) [, (...)]*
//! DELETE FROM <table> [WHERE <column> <cmp> <number>]
//! UPDATE <table> SET <col> = <num> [, <col> = <num>...] [WHERE ...]
//! ```
//!
//! parsed by [`parse_statement`] and executed through the catalogue's
//! write paths (tombstones and overwrites in the delta — see
//! [`crate::delta`]). Tuple arity, duplicate columns and out-of-range
//! values are parse-time errors. `=` is accepted only in `SET`
//! assignments; as a *comparison* it stays unsupported (the ISA gap).
//!
//! Transactions bracket writes or pin reads:
//!
//! ```text
//! BEGIN [TRANSACTION]     -- write transaction: buffered, atomic at COMMIT
//! BEGIN READ ONLY         -- repeatable reads at one snapshot
//! COMMIT | ROLLBACK
//! ```
//!
//! and time travel reads older states:
//!
//! ```text
//! CREATE SNAPSHOT <name>              -- durable named version
//! SELECT ... FROM <table> AS OF <name>
//! SELECT ... FROM <table> AS OF data_version <N>
//! ```
//!
//! ```
//! use vagg_db::parse;
//!
//! let q = parse("SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g")?;
//! assert_eq!(q.table, "r");
//! assert_eq!(q.query.sql("r"), "SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g");
//! # Ok::<(), vagg_db::ParseSqlError>(())
//! ```

use crate::filter::Predicate;
use crate::query::{AggFn, AggregateQuery, Having, OrderBy, OrderKey};
use std::error::Error;
use std::fmt;

/// A parsed statement: the target table plus the structured query.
#[derive(Debug, Clone)]
pub struct SqlQuery {
    /// The `FROM` table name (the probe-side *candidate* when a
    /// [`JoinClause`] is present — the planner picks the actual build
    /// side from statistics).
    pub table: String,
    /// The structured query the engine executes. With a join, column
    /// references may be table-qualified (`t.col`) and are resolved
    /// against the joined pair at plan time.
    pub query: AggregateQuery,
    /// Time travel: `None` reads the current state, `Some` reads a
    /// named or per-version historical state.
    pub as_of: Option<AsOf>,
    /// An equi-join: `FROM a JOIN b ON a.k = b.k [AND ...]`. `None`
    /// for the single-table query family.
    pub join: Option<JoinClause>,
}

impl SqlQuery {
    /// The statement rendered as SQL, without `AS OF` — the text a
    /// prepared execution reports to the trace and the metrics registry.
    pub(crate) fn sql(&self) -> String {
        match &self.join {
            None => self.query.sql(&self.table),
            Some(join) => self
                .query
                .sql(&join_from(&self.table, &join.table, &join.on)),
        }
    }
}

/// `left JOIN right ON left.l = right.r [AND ...]`: the `FROM` of a
/// two-table statement, as [`SqlQuery::sql`] and
/// [`crate::JoinPlan::sql`] render it.
pub(crate) fn join_from(left: &str, right: &str, on: &[(String, String)]) -> String {
    let on: Vec<String> = on
        .iter()
        .map(|(l, r)| format!("{left}.{l} = {right}.{r}"))
        .collect();
    format!("{left} JOIN {right} ON {}", on.join(" AND "))
}

/// The `JOIN ... ON` clause of an equi-join `SELECT`: the second table
/// and the equi-key pairs, normalised to `(FROM-side column,
/// JOIN-side column)` regardless of how the SQL ordered each equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinClause {
    /// The joined (right-hand) table name.
    pub table: String,
    /// The equi-key column pairs: `(column of the FROM table, column
    /// of the joined table)`, in SQL order.
    pub on: Vec<(String, String)>,
}

/// The `AS OF` clause: which historical state a `SELECT` reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsOf {
    /// `AS OF <name>` — a named version created by `CREATE SNAPSHOT`.
    Name(String),
    /// `AS OF data_version <N>` — the table's state at data version
    /// `N` (available while the delta generation that produced it
    /// stands; compaction folds old versions away).
    DataVersion(u64),
}

/// One parsed statement: a `SELECT` / `EXPLAIN SELECT`, a write
/// (`INSERT`, `DELETE`, `UPDATE`), a transaction bracket (`BEGIN`
/// [`READ ONLY`], `COMMIT`, `ROLLBACK`), or `CREATE SNAPSHOT`.
#[derive(Debug, Clone)]
pub enum Statement {
    /// Execute the query and return rows.
    Select(SqlQuery),
    /// Plan the query and return the typed [`crate::QueryPlan`].
    Explain(SqlQuery),
    /// Execute the query with tracing on and return the rows plus a
    /// per-step/per-morsel [`crate::QueryTrace`].
    ExplainAnalyze(SqlQuery),
    /// Append rows through the write path
    /// (see [`crate::SharedCatalogue::append`]).
    Insert(InsertStatement),
    /// Tombstone matching rows (see [`crate::DeltaStore`]).
    Delete(DeleteStatement),
    /// Overwrite columns of matching rows.
    Update(UpdateStatement),
    /// `BEGIN [TRANSACTION]` (a write transaction: statements buffer
    /// until `COMMIT` installs them atomically) or `BEGIN READ ONLY`
    /// (the session captures one [`crate::Snapshot`] and every
    /// statement until `COMMIT` reads at it).
    Begin {
        /// `true` for `BEGIN READ ONLY`.
        read_only: bool,
    },
    /// `COMMIT`: close the open transaction — install a write
    /// transaction's buffered statements, or release a read-only
    /// transaction's snapshot.
    Commit,
    /// `ROLLBACK`: discard the open transaction.
    Rollback,
    /// `CREATE SNAPSHOT name`: freeze the current state under a name
    /// that survives compaction and restart (time travel anchor).
    CreateSnapshot(
        /// The version's name.
        String,
    ),
}

/// A parsed `DELETE FROM t [WHERE col cmp num]` statement. The rows the
/// predicate matches are tombstoned in the table's delta — filtered
/// from every later read, physically dropped at compaction.
#[derive(Debug, Clone)]
pub struct DeleteStatement {
    /// The target table name.
    pub table: String,
    /// The WHERE predicate; `None` deletes every row.
    pub filter: Option<(String, Predicate)>,
}

/// A parsed `UPDATE t SET col = num [, ...] [WHERE col cmp num]`
/// statement. Matching rows get overwrite entries in the table's
/// delta, folded in at read and at compaction.
#[derive(Debug, Clone)]
pub struct UpdateStatement {
    /// The target table name.
    pub table: String,
    /// The `(column, new value)` assignments, in SQL order.
    pub sets: Vec<(String, u32)>,
    /// The WHERE predicate; `None` updates every row.
    pub filter: Option<(String, Predicate)>,
}

/// A parsed `INSERT INTO t (cols...) VALUES (...), ...` statement.
/// Tuple arity against the column list, duplicate columns and
/// out-of-range values are rejected at parse time with typed
/// [`ParseSqlError`]s; the column set is checked against the table's
/// schema at append time (typed [`crate::IngestError`]s).
#[derive(Debug, Clone)]
pub struct InsertStatement {
    /// The target table name.
    pub table: String,
    /// The column list, in tuple-position order.
    pub columns: Vec<String>,
    /// The value tuples, each exactly `columns.len()` wide.
    pub rows: Vec<Vec<u32>>,
}

/// Where one `?` placeholder of a prepared statement binds, in SQL
/// order (see [`parse_template`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamSlot {
    /// The WHERE clause's comparison constant.
    FilterConstant,
    /// The HAVING clause's comparison constant.
    HavingConstant,
    /// The LIMIT row budget.
    Limit,
}

/// A parsed prepared-statement template: the query carries sentinel
/// constants where the SQL had `?` placeholders, and `slots` records
/// each placeholder's binding site in SQL order. Produced by
/// [`parse_template`], consumed by [`crate::Database::prepare`].
#[derive(Debug, Clone)]
pub struct SqlTemplate {
    /// The `FROM` table name.
    pub table: String,
    /// The query with sentinel constants in the placeholder positions.
    pub query: AggregateQuery,
    /// The placeholders in SQL order (empty for a fully literal
    /// statement, which is a valid zero-parameter template).
    pub slots: Vec<ParamSlot>,
    /// The equi-join clause, when the template is a two-table
    /// statement.
    pub join: Option<JoinClause>,
}

/// Why a statement failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseSqlError {
    /// A character the lexer does not recognise.
    UnexpectedChar(char),
    /// The statement ended where more input was required.
    UnexpectedEnd(&'static str),
    /// A token other than the expected one appeared.
    Expected {
        /// What the grammar required here.
        expected: &'static str,
        /// What was found instead.
        found: String,
    },
    /// An aggregate function name that is not COUNT/SUM/MIN/MAX/AVG.
    UnknownAggregate(String),
    /// Aggregates referencing different value columns (unsupported).
    MixedValueColumns(String, String),
    /// The `GROUP BY` column differs from the first selected column.
    GroupByMismatch {
        /// The first column of the SELECT list.
        selected: String,
        /// The column named in GROUP BY.
        grouped: String,
    },
    /// A comparison the ISA cannot express (`=`, `<=`, `>=`).
    UnsupportedComparison(String),
    /// Input remained after a complete statement.
    TrailingInput(String),
    /// The SELECT list has no aggregate functions.
    NoAggregates,
    /// A `?` placeholder in a statement that is not being prepared —
    /// placeholders only make sense through [`parse_template`] /
    /// [`crate::Database::prepare`].
    UnboundPlaceholder,
    /// An `INSERT` tuple whose width disagrees with its column list.
    InsertArity {
        /// 1-based tuple number in the `VALUES` list.
        tuple: usize,
        /// Columns the `INSERT` names.
        expected: usize,
        /// Values the tuple carries.
        got: usize,
    },
    /// An `INSERT` or `UPDATE SET` column list naming one column twice.
    InsertDuplicateColumn(
        /// The repeated column.
        String,
    ),
    /// An `INSERT` value that does not fit the store's 32-bit columns.
    InsertValueTooLarge {
        /// 1-based tuple number in the `VALUES` list.
        tuple: usize,
        /// The offending value.
        value: u64,
    },
    /// A numeric literal too large to lex (beyond 64 bits).
    NumberTooLarge(
        /// The literal's digits.
        String,
    ),
    /// A `WHERE`/`HAVING` comparison constant that does not fit the
    /// store's 32-bit column values.
    ConstantTooLarge {
        /// The offending constant.
        value: u64,
    },
}

impl fmt::Display for ParseSqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseSqlError::UnexpectedChar(c) => {
                write!(f, "unexpected character {c:?}")
            }
            ParseSqlError::UnexpectedEnd(what) => {
                write!(f, "unexpected end of statement, expected {what}")
            }
            ParseSqlError::Expected { expected, found } => {
                write!(f, "expected {expected}, found {found:?}")
            }
            ParseSqlError::UnknownAggregate(name) => {
                write!(
                    f,
                    "unknown aggregate {name:?} (supported: COUNT, SUM, MIN, MAX, AVG)"
                )
            }
            ParseSqlError::MixedValueColumns(a, b) => {
                write!(
                    f,
                    "aggregates reference different value columns {a:?} and {b:?}"
                )
            }
            ParseSqlError::GroupByMismatch { selected, grouped } => {
                write!(
                    f,
                    "GROUP BY column {grouped:?} does not match selected column {selected:?}"
                )
            }
            ParseSqlError::UnsupportedComparison(op) => {
                write!(
                    f,
                    "unsupported comparison {op:?}: the vector ISA expresses \
                     <>, !=, > and < (Table III comparisons plus a maximum \
                     composition); = / <= / >= would need a mask-complement \
                     instruction"
                )
            }
            ParseSqlError::TrailingInput(tok) => {
                write!(f, "unexpected input after statement: {tok:?}")
            }
            ParseSqlError::NoAggregates => {
                write!(f, "the SELECT list names no aggregate functions")
            }
            ParseSqlError::UnboundPlaceholder => {
                write!(
                    f,
                    "`?` placeholders are only valid in prepared statements; \
                     use Database::prepare"
                )
            }
            ParseSqlError::InsertArity {
                tuple,
                expected,
                got,
            } => write!(
                f,
                "INSERT tuple {tuple} has {got} value(s), the column list \
                 names {expected}"
            ),
            ParseSqlError::InsertDuplicateColumn(c) => {
                write!(f, "column list names {c:?} twice")
            }
            ParseSqlError::InsertValueTooLarge { tuple, value } => write!(
                f,
                "INSERT tuple {tuple}: value {value} does not fit a 32-bit \
                 column"
            ),
            ParseSqlError::NumberTooLarge(digits) => {
                write!(f, "numeric literal {digits} exceeds 64 bits")
            }
            ParseSqlError::ConstantTooLarge { value } => write!(
                f,
                "comparison constant {value} does not fit a 32-bit column \
                 value"
            ),
        }
    }
}

impl Error for ParseSqlError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Ident(String),
    Number(u64),
    Comma,
    Dot,
    LParen,
    RParen,
    Star,
    NotEqual,
    Greater,
    Less,
    Equals,
    Semicolon,
    Question,
}

impl Token {
    fn describe(&self) -> String {
        match self {
            Token::Ident(s) => s.clone(),
            Token::Number(n) => n.to_string(),
            Token::Comma => ",".into(),
            Token::Dot => ".".into(),
            Token::LParen => "(".into(),
            Token::RParen => ")".into(),
            Token::Star => "*".into(),
            Token::NotEqual => "<>".into(),
            Token::Greater => ">".into(),
            Token::Less => "<".into(),
            Token::Equals => "=".into(),
            Token::Semicolon => ";".into(),
            Token::Question => "?".into(),
        }
    }
}

fn tokenize(input: &str) -> Result<Vec<Token>, ParseSqlError> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            ',' => {
                chars.next();
                out.push(Token::Comma);
            }
            '.' => {
                chars.next();
                out.push(Token::Dot);
            }
            '(' => {
                chars.next();
                out.push(Token::LParen);
            }
            ')' => {
                chars.next();
                out.push(Token::RParen);
            }
            '*' => {
                chars.next();
                out.push(Token::Star);
            }
            ';' => {
                chars.next();
                out.push(Token::Semicolon);
            }
            '?' => {
                chars.next();
                out.push(Token::Question);
            }
            '<' => {
                chars.next();
                match chars.peek() {
                    Some('>') => {
                        chars.next();
                        out.push(Token::NotEqual);
                    }
                    Some('=') => {
                        return Err(ParseSqlError::UnsupportedComparison("<=".into()));
                    }
                    _ => out.push(Token::Less),
                }
            }
            '>' => {
                chars.next();
                match chars.peek() {
                    Some('=') => {
                        return Err(ParseSqlError::UnsupportedComparison(">=".into()));
                    }
                    _ => out.push(Token::Greater),
                }
            }
            '!' => {
                chars.next();
                match chars.peek() {
                    Some('=') => {
                        chars.next();
                        out.push(Token::NotEqual);
                    }
                    _ => return Err(ParseSqlError::UnexpectedChar('!')),
                }
            }
            // `=` lexes (UPDATE ... SET needs it); as a *comparison*
            // the parser rejects it with the ISA-gap guidance.
            '=' => {
                chars.next();
                out.push(Token::Equals);
            }
            '0'..='9' => {
                let mut digits = String::new();
                while let Some(&d) = chars.peek() {
                    match d {
                        '0'..='9' => {
                            digits.push(d);
                            chars.next();
                        }
                        '_' => {
                            chars.next();
                        }
                        _ => break,
                    }
                }
                let n: u64 = digits
                    .parse()
                    .map_err(|_| ParseSqlError::NumberTooLarge(digits.clone()))?;
                out.push(Token::Number(n));
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&a) = chars.peek() {
                    if a.is_alphanumeric() || a == '_' {
                        s.push(a);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Token::Ident(s));
            }
            other => return Err(ParseSqlError::UnexpectedChar(other)),
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// `Some` while parsing a prepared-statement template: `?`
    /// placeholders are recorded here; `None` rejects them.
    slots: Option<Vec<ParamSlot>>,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self, expected: &'static str) -> Result<Token, ParseSqlError> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or(ParseSqlError::UnexpectedEnd(expected))?;
        self.pos += 1;
        Ok(t)
    }

    fn ident(&mut self, expected: &'static str) -> Result<String, ParseSqlError> {
        match self.next(expected)? {
            Token::Ident(s) => Ok(s),
            other => Err(ParseSqlError::Expected {
                expected,
                found: other.describe(),
            }),
        }
    }

    fn keyword(&mut self, kw: &'static str) -> Result<(), ParseSqlError> {
        let s = self.ident(kw)?;
        if s.eq_ignore_ascii_case(kw) {
            Ok(())
        } else {
            Err(ParseSqlError::Expected {
                expected: kw,
                found: s,
            })
        }
    }

    fn expect(&mut self, tok: Token, expected: &'static str) -> Result<(), ParseSqlError> {
        let t = self.next(expected)?;
        if t == tok {
            Ok(())
        } else {
            Err(ParseSqlError::Expected {
                expected,
                found: t.describe(),
            })
        }
    }

    fn peek_is_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    /// A column reference: a bare `col` or a table-qualified `t.col`
    /// (joins qualify columns; against a single table a qualified name
    /// simply fails column resolution at plan time).
    fn column(&mut self, expected: &'static str) -> Result<String, ParseSqlError> {
        let first = self.ident(expected)?;
        self.maybe_qualify(first)
    }

    /// Extends an already-consumed identifier with a `.col` suffix when
    /// one follows.
    fn maybe_qualify(&mut self, first: String) -> Result<String, ParseSqlError> {
        if self.peek() == Some(&Token::Dot) {
            self.pos += 1;
            let col = self.ident("a column name after `.`")?;
            Ok(format!("{first}.{col}"))
        } else {
            Ok(first)
        }
    }

    /// Records a `?` placeholder, or rejects it outside a template.
    fn record_slot(&mut self, slot: ParamSlot) -> Result<(), ParseSqlError> {
        match &mut self.slots {
            Some(slots) => {
                slots.push(slot);
                Ok(())
            }
            None => Err(ParseSqlError::UnboundPlaceholder),
        }
    }
}

/// One parsed SELECT-list aggregate: the function and its column
/// (`None` for `COUNT(*)`).
fn parse_aggregate(p: &mut Parser, name: &str) -> Result<(AggFn, Option<String>), ParseSqlError> {
    let fun = match name.to_ascii_uppercase().as_str() {
        "COUNT" => AggFn::Count,
        "SUM" => AggFn::Sum,
        "MIN" => AggFn::Min,
        "MAX" => AggFn::Max,
        "AVG" => AggFn::Avg,
        other => return Err(ParseSqlError::UnknownAggregate(other.into())),
    };
    p.expect(Token::LParen, "(")?;
    let col = match p.next("aggregate argument")? {
        Token::Star if fun == AggFn::Count => None,
        Token::Ident(c) if fun != AggFn::Count => Some(p.maybe_qualify(c)?),
        Token::Star => {
            return Err(ParseSqlError::Expected {
                expected: "a column name (only COUNT takes *)",
                found: "*".into(),
            })
        }
        other => {
            return Err(ParseSqlError::Expected {
                expected: "aggregate argument",
                found: other.describe(),
            })
        }
    };
    p.expect(Token::RParen, ")")?;
    Ok((fun, col))
}

/// Parses one `SELECT` statement of the supported grammar.
///
/// Statements beginning with `EXPLAIN` are rejected here; use
/// [`parse_statement`] to accept both forms.
///
/// # Errors
///
/// Returns [`ParseSqlError`] describing the first problem found: lexical
/// errors, grammar violations, unsupported comparisons, aggregate
/// inconsistencies, or trailing input.
pub fn parse(sql: &str) -> Result<SqlQuery, ParseSqlError> {
    let found = match parse_statement(sql)? {
        Statement::Select(q) => return Ok(q),
        Statement::Explain(_) => "EXPLAIN",
        Statement::ExplainAnalyze(_) => "EXPLAIN",
        Statement::Insert(_) => "INSERT",
        Statement::Delete(_) => "DELETE",
        Statement::Update(_) => "UPDATE",
        Statement::Begin { .. } => "BEGIN",
        Statement::Commit => "COMMIT",
        Statement::Rollback => "ROLLBACK",
        Statement::CreateSnapshot(_) => "CREATE",
    };
    Err(ParseSqlError::Expected {
        expected: "SELECT",
        found: found.into(),
    })
}

/// Parses one statement: `SELECT ...`, `EXPLAIN [ANALYZE] SELECT ...`,
/// `INSERT INTO t (cols...) VALUES (...), ...`, `DELETE FROM t ...`,
/// `UPDATE t SET ...`, `CREATE SNAPSHOT name`, `BEGIN`
/// (`[TRANSACTION]` / `READ ONLY`), `COMMIT` or `ROLLBACK`.
///
/// # Errors
///
/// As [`parse`], plus the typed `INSERT` errors
/// ([`ParseSqlError::InsertArity`],
/// [`ParseSqlError::InsertDuplicateColumn`],
/// [`ParseSqlError::InsertValueTooLarge`]).
pub fn parse_statement(sql: &str) -> Result<Statement, ParseSqlError> {
    let mut p = Parser {
        tokens: tokenize(sql)?,
        pos: 0,
        slots: None,
    };
    if p.peek_is_keyword("INSERT") {
        p.pos += 1;
        return parse_insert(&mut p).map(Statement::Insert);
    }
    if p.peek_is_keyword("DELETE") {
        p.pos += 1;
        return parse_delete(&mut p).map(Statement::Delete);
    }
    if p.peek_is_keyword("UPDATE") {
        p.pos += 1;
        return parse_update(&mut p).map(Statement::Update);
    }
    if p.peek_is_keyword("CREATE") {
        p.pos += 1;
        p.keyword("SNAPSHOT")?;
        let name = p.ident("the snapshot name")?;
        parse_statement_end(&mut p)?;
        return Ok(Statement::CreateSnapshot(name));
    }
    if p.peek_is_keyword("BEGIN") {
        p.pos += 1;
        return parse_begin(&mut p);
    }
    if p.peek_is_keyword("COMMIT") {
        p.pos += 1;
        parse_statement_end(&mut p)?;
        return Ok(Statement::Commit);
    }
    if p.peek_is_keyword("ROLLBACK") {
        p.pos += 1;
        parse_statement_end(&mut p)?;
        return Ok(Statement::Rollback);
    }
    let explain = p.peek_is_keyword("EXPLAIN");
    if explain {
        p.pos += 1;
    }
    let analyze = explain && p.peek_is_keyword("ANALYZE");
    if analyze {
        p.pos += 1;
    }
    let query = parse_select(&mut p)?;
    Ok(if analyze {
        Statement::ExplainAnalyze(query)
    } else if explain {
        Statement::Explain(query)
    } else {
        Statement::Select(query)
    })
}

// `[TRANSACTION | READ ONLY] [;]` — the leading BEGIN keyword was
// already consumed. A bare `BEGIN` (or `BEGIN TRANSACTION`) opens a
// write transaction; `BEGIN READ ONLY` opens a snapshot-pinned
// read-only transaction.
fn parse_begin(p: &mut Parser) -> Result<Statement, ParseSqlError> {
    const EXPECTED: &str = "TRANSACTION, READ ONLY, or the end of the statement";
    if p.peek_is_keyword("TRANSACTION") {
        p.pos += 1;
        parse_statement_end(p)?;
        return Ok(Statement::Begin { read_only: false });
    }
    if p.peek_is_keyword("READ") {
        p.pos += 1;
        let only = p.ident("ONLY (after READ)")?;
        if !only.eq_ignore_ascii_case("ONLY") {
            return Err(ParseSqlError::Expected {
                expected: "ONLY (after READ)",
                found: only,
            });
        }
        parse_statement_end(p)?;
        return Ok(Statement::Begin { read_only: true });
    }
    if let Some(t) = p.peek() {
        if t != &Token::Semicolon {
            return Err(ParseSqlError::Expected {
                expected: EXPECTED,
                found: t.describe(),
            });
        }
    }
    parse_statement_end(p)?;
    Ok(Statement::Begin { read_only: false })
}

// `FROM t [WHERE col cmp num] [;]` — the leading DELETE keyword was
// already consumed.
fn parse_delete(p: &mut Parser) -> Result<DeleteStatement, ParseSqlError> {
    p.keyword("FROM")?;
    let table = p.ident("the table name")?;
    let filter = parse_where(p)?;
    parse_statement_end(p)?;
    Ok(DeleteStatement { table, filter })
}

// `t SET col = num [, col = num]* [WHERE col cmp num] [;]` — the
// leading UPDATE keyword was already consumed.
fn parse_update(p: &mut Parser) -> Result<UpdateStatement, ParseSqlError> {
    let table = p.ident("the table name")?;
    p.keyword("SET")?;
    let mut sets: Vec<(String, u32)> = Vec::new();
    loop {
        let column = p.ident("a column name")?;
        p.expect(Token::Equals, "=")?;
        let value = match p.next("a value")? {
            Token::Number(n) => {
                u32::try_from(n).map_err(|_| ParseSqlError::ConstantTooLarge { value: n })?
            }
            other => {
                return Err(ParseSqlError::Expected {
                    expected: "a value",
                    found: other.describe(),
                })
            }
        };
        if sets.iter().any(|(c, _)| c == &column) {
            return Err(ParseSqlError::InsertDuplicateColumn(column));
        }
        sets.push((column, value));
        if p.peek() == Some(&Token::Comma) {
            p.pos += 1;
        } else {
            break;
        }
    }
    let filter = parse_where(p)?;
    parse_statement_end(p)?;
    Ok(UpdateStatement {
        table,
        sets,
        filter,
    })
}

// Optional `WHERE <col> <cmp> <num>` — shared by SELECT, DELETE and
// UPDATE.
fn parse_where(p: &mut Parser) -> Result<Option<(String, Predicate)>, ParseSqlError> {
    if !p.peek_is_keyword("WHERE") {
        return Ok(None);
    }
    p.pos += 1;
    let col = p.column("the filtered column")?;
    Ok(Some((col, parse_predicate(p, ParamSlot::FilterConstant)?)))
}

// Optional trailing semicolon, then end of input.
fn parse_statement_end(p: &mut Parser) -> Result<(), ParseSqlError> {
    if p.peek() == Some(&Token::Semicolon) {
        p.pos += 1;
    }
    if let Some(t) = p.peek() {
        return Err(ParseSqlError::TrailingInput(t.describe()));
    }
    Ok(())
}

// `INTO t (col, ...) VALUES (num, ...) [, (num, ...)]* [;]` — the
// leading INSERT keyword was already consumed.
fn parse_insert(p: &mut Parser) -> Result<InsertStatement, ParseSqlError> {
    p.keyword("INTO")?;
    let table = p.ident("the table name")?;
    p.expect(Token::LParen, "(")?;
    let mut columns = vec![p.ident("a column name")?];
    while p.peek() == Some(&Token::Comma) {
        p.pos += 1;
        columns.push(p.ident("a column name")?);
    }
    p.expect(Token::RParen, ")")?;
    for (i, c) in columns.iter().enumerate() {
        if columns[..i].contains(c) {
            return Err(ParseSqlError::InsertDuplicateColumn(c.clone()));
        }
    }
    p.keyword("VALUES")?;
    let mut rows: Vec<Vec<u32>> = Vec::new();
    loop {
        let tuple = rows.len() + 1;
        p.expect(Token::LParen, "(")?;
        let mut row = Vec::with_capacity(columns.len());
        loop {
            match p.next("a value")? {
                Token::Number(n) => row.push(
                    u32::try_from(n)
                        .map_err(|_| ParseSqlError::InsertValueTooLarge { tuple, value: n })?,
                ),
                other => {
                    return Err(ParseSqlError::Expected {
                        expected: "a value",
                        found: other.describe(),
                    })
                }
            }
            match p.next("`,` or `)`")? {
                Token::Comma => {}
                Token::RParen => break,
                other => {
                    return Err(ParseSqlError::Expected {
                        expected: "`,` or `)`",
                        found: other.describe(),
                    })
                }
            }
        }
        if row.len() != columns.len() {
            return Err(ParseSqlError::InsertArity {
                tuple,
                expected: columns.len(),
                got: row.len(),
            });
        }
        rows.push(row);
        if p.peek() == Some(&Token::Comma) {
            p.pos += 1;
        } else {
            break;
        }
    }
    if p.peek() == Some(&Token::Semicolon) {
        p.pos += 1;
    }
    if let Some(t) = p.peek() {
        return Err(ParseSqlError::TrailingInput(t.describe()));
    }
    Ok(InsertStatement {
        table,
        columns,
        rows,
    })
}

/// Parses one `SELECT` statement as a prepared-statement template:
/// `?` placeholders are accepted wherever a comparison constant or a
/// LIMIT row count may appear, and recorded as [`ParamSlot`]s in SQL
/// order. A statement without placeholders is a valid zero-parameter
/// template. `EXPLAIN` is rejected (plan the bound SQL with
/// [`crate::Database::explain_sql`] instead).
///
/// ```
/// use vagg_db::{parse_template, ParamSlot};
///
/// let t = parse_template(
///     "SELECT g, SUM(v) FROM r WHERE w > ? GROUP BY g LIMIT ?",
/// )?;
/// assert_eq!(t.slots, vec![ParamSlot::FilterConstant, ParamSlot::Limit]);
/// # Ok::<(), vagg_db::ParseSqlError>(())
/// ```
///
/// # Errors
///
/// As [`parse`], plus `EXPLAIN` statements are rejected.
pub fn parse_template(sql: &str) -> Result<SqlTemplate, ParseSqlError> {
    let mut p = Parser {
        tokens: tokenize(sql)?,
        pos: 0,
        slots: Some(Vec::new()),
    };
    if p.peek_is_keyword("EXPLAIN") {
        return Err(ParseSqlError::Expected {
            expected: "SELECT",
            found: "EXPLAIN".into(),
        });
    }
    let q = parse_select(&mut p)?;
    if q.as_of.is_some() {
        // A prepared statement reads live or at the snapshot it is
        // executed at; a frozen state in the template would defeat both.
        return Err(ParseSqlError::Expected {
            expected: "a statement without AS OF (time travel cannot be prepared)",
            found: "AS OF".into(),
        });
    }
    Ok(SqlTemplate {
        table: q.table,
        query: q.query,
        slots: p.slots.expect("template parser keeps its slot list"),
        join: q.join,
    })
}

// One `t.col` reference of an ON clause — join keys must be
// table-qualified so each equality attributes unambiguously.
fn parse_on_ref(p: &mut Parser) -> Result<(String, String), ParseSqlError> {
    let table = p.ident("a table-qualified join key (t.col)")?;
    p.expect(Token::Dot, "`.` (join keys are table-qualified)")?;
    let col = p.ident("a column name after `.`")?;
    Ok((table, col))
}

fn parse_select(p: &mut Parser) -> Result<SqlQuery, ParseSqlError> {
    p.keyword("SELECT")?;
    // Grouping columns: plain (possibly table-qualified) identifiers
    // before the first aggregate call (aggregates are recognised by
    // their parenthesis).
    let group_col = p.column("the grouping column")?;
    p.expect(Token::Comma, ",")?;
    let mut group_rest: Vec<String> = Vec::new();

    // Aggregate list.
    let mut aggregates: Vec<AggFn> = Vec::new();
    let mut value_col: Option<String> = None;
    loop {
        let name = p.ident("a grouping column or aggregate function")?;
        if aggregates.is_empty() && p.peek() != Some(&Token::LParen) {
            group_rest.push(p.maybe_qualify(name)?);
            p.expect(Token::Comma, ",")?;
            continue;
        }
        let (fun, col) = parse_aggregate(p, &name)?;
        if let Some(col) = col {
            match &value_col {
                None => value_col = Some(col),
                Some(prev) if *prev != col => {
                    return Err(ParseSqlError::MixedValueColumns(prev.clone(), col))
                }
                Some(_) => {}
            }
        }
        if !aggregates.contains(&fun) {
            aggregates.push(fun);
        }
        match p.peek() {
            Some(Token::Comma) => {
                p.pos += 1;
            }
            _ => break,
        }
    }
    if aggregates.is_empty() {
        return Err(ParseSqlError::NoAggregates);
    }

    p.keyword("FROM")?;
    let table = p.ident("the table name")?;

    // Optional `[INNER] JOIN b ON a.k = b.k [AND ...]` equi-join.
    let mut join: Option<JoinClause> = None;
    if p.peek_is_keyword("INNER") || p.peek_is_keyword("JOIN") {
        if p.peek_is_keyword("INNER") {
            p.pos += 1;
        }
        p.keyword("JOIN")?;
        let right = p.ident("the joined table name")?;
        if right == table {
            return Err(ParseSqlError::Expected {
                expected: "a second table (self-joins are not supported)",
                found: right,
            });
        }
        p.keyword("ON")?;
        let mut on: Vec<(String, String)> = Vec::new();
        loop {
            let (lt, lc) = parse_on_ref(p)?;
            // `=` is accepted *here only*: join keys are equi-compared
            // on the host hash table, not through the vector ISA's
            // comparison class (where `=` stays unsupported).
            p.expect(Token::Equals, "= (join keys are equi-compared)")?;
            let (rt, rc) = parse_on_ref(p)?;
            let pair = if lt == table && rt == right {
                (lc, rc)
            } else if lt == right && rt == table {
                (rc, lc)
            } else {
                return Err(ParseSqlError::Expected {
                    expected: "ON columns qualified by the two joined tables",
                    found: format!("{lt}.{lc} = {rt}.{rc}"),
                });
            };
            on.push(pair);
            if p.peek_is_keyword("AND") {
                p.pos += 1;
            } else {
                break;
            }
        }
        join = Some(JoinClause { table: right, on });
    }

    // Optional `AS OF <name | data_version N>` time travel.
    let mut as_of: Option<AsOf> = None;
    if p.peek_is_keyword("AS") {
        p.pos += 1;
        p.keyword("OF")?;
        let name = p.ident("a snapshot name or data_version")?;
        as_of = Some(if name.eq_ignore_ascii_case("data_version") {
            match p.next("a version number")? {
                Token::Number(n) => AsOf::DataVersion(n),
                other => {
                    return Err(ParseSqlError::Expected {
                        expected: "a version number",
                        found: other.describe(),
                    })
                }
            }
        } else {
            AsOf::Name(name)
        });
    }

    // Optional WHERE <col> <cmp> <num>.
    let filter = parse_where(p)?;

    p.keyword("GROUP")?;
    p.keyword("BY")?;
    let mut grouped_cols = vec![p.column("the GROUP BY column")?];
    while p.peek() == Some(&Token::Comma) {
        p.pos += 1;
        grouped_cols.push(p.column("a GROUP BY column")?);
    }
    let mut selected_cols = vec![group_col.clone()];
    selected_cols.extend(group_rest.iter().cloned());
    if grouped_cols != selected_cols {
        return Err(ParseSqlError::GroupByMismatch {
            selected: selected_cols.join(", "),
            grouped: grouped_cols.join(", "),
        });
    }

    // Optional HAVING <agg>(col|*) <cmp> <num>.
    let mut having: Option<Having> = None;
    if p.peek_is_keyword("HAVING") {
        p.pos += 1;
        let name = p.ident("an aggregate function")?;
        let (fun, col) = parse_aggregate(p, &name)?;
        if let (Some(prev), Some(col)) = (&value_col, &col) {
            if prev != col {
                return Err(ParseSqlError::MixedValueColumns(prev.clone(), col.clone()));
            }
        }
        if value_col.is_none() {
            value_col = col;
        }
        if !aggregates.contains(&fun) {
            aggregates.push(fun);
        }
        having = Some(Having {
            agg: fun,
            pred: parse_predicate(p, ParamSlot::HavingConstant)?,
        });
    }

    // Optional ORDER BY <col | agg> [ASC | DESC] [LIMIT k].
    let mut order_by: Option<OrderBy> = None;
    if p.peek_is_keyword("ORDER") {
        p.pos += 1;
        p.keyword("BY")?;
        let name = p.ident("an ORDER BY key")?;
        let key = if p.peek() == Some(&Token::Dot) {
            // A qualified name is never an aggregate call.
            let name = p.maybe_qualify(name)?;
            if name == group_col {
                OrderKey::Group
            } else {
                return Err(ParseSqlError::Expected {
                    expected: "the grouping column or an aggregate",
                    found: name,
                });
            }
        } else if p.peek() == Some(&Token::LParen) {
            let (fun, col) = parse_aggregate(p, &name)?;
            if let (Some(prev), Some(col)) = (&value_col, &col) {
                if prev != col {
                    return Err(ParseSqlError::MixedValueColumns(prev.clone(), col.clone()));
                }
            }
            if value_col.is_none() {
                value_col = col;
            }
            if !aggregates.contains(&fun) {
                aggregates.push(fun);
            }
            OrderKey::Agg(fun)
        } else if name == group_col {
            OrderKey::Group
        } else {
            return Err(ParseSqlError::Expected {
                expected: "the grouping column or an aggregate",
                found: name,
            });
        };
        let desc = if p.peek_is_keyword("DESC") {
            p.pos += 1;
            true
        } else {
            if p.peek_is_keyword("ASC") {
                p.pos += 1;
            }
            false
        };
        order_by = Some(OrderBy {
            key,
            desc,
            limit: None,
        });
    }

    // Optional LIMIT k (defaults to ascending group order without an
    // explicit ORDER BY, as the engine's natural output order).
    if p.peek_is_keyword("LIMIT") {
        p.pos += 1;
        let k = match p.next("a row count")? {
            // A LIMIT beyond the address space is semantically "keep
            // everything": saturate instead of erroring.
            Token::Number(k) => usize::try_from(k).unwrap_or(usize::MAX),
            Token::Question => {
                p.record_slot(ParamSlot::Limit)?;
                PLACEHOLDER_SENTINEL as usize
            }
            other => {
                return Err(ParseSqlError::Expected {
                    expected: "a row count",
                    found: other.describe(),
                })
            }
        };
        order_by
            .get_or_insert(OrderBy {
                key: OrderKey::Group,
                desc: false,
                limit: None,
            })
            .limit = Some(k);
    }

    // Optional trailing semicolon, then end.
    if p.peek() == Some(&Token::Semicolon) {
        p.pos += 1;
    }
    if let Some(t) = p.peek() {
        return Err(ParseSqlError::TrailingInput(t.describe()));
    }

    // COUNT(*)-only queries have no value column; grouping column works
    // as a placeholder since SUM is not requested.
    let value = value_col.unwrap_or_else(|| group_col.clone());
    Ok(SqlQuery {
        table,
        as_of,
        join,
        query: AggregateQuery {
            group_by: group_col,
            group_by_rest: group_rest,
            value,
            aggregates,
            filter,
            having,
            order_by,
        },
    })
}

// The constant a template carries in a `?` position until bind time.
// Any non-zero value works: it keeps `<> ?` away from the dedicated
// `NonZero` compare (bind maps `<> 0` there, like the literal parser).
const PLACEHOLDER_SENTINEL: u32 = 1;

// `<cmp> <number | ?>` — the comparison vocabulary the ISA can express
// (see [`crate::filter`]: `<>`/`!=` natively, `>`/`<` composed with
// `maximum`). In template mode a `?` constant is recorded under `slot`.
fn parse_predicate(p: &mut Parser, slot: ParamSlot) -> Result<Predicate, ParseSqlError> {
    let op = p.next("a comparison operator")?;
    if op == Token::Equals {
        return Err(ParseSqlError::UnsupportedComparison("=".into()));
    }
    let k = match p.next("a comparison constant")? {
        Token::Number(k) => {
            u32::try_from(k).map_err(|_| ParseSqlError::ConstantTooLarge { value: k })?
        }
        Token::Question => {
            p.record_slot(slot)?;
            PLACEHOLDER_SENTINEL
        }
        other => {
            return Err(ParseSqlError::Expected {
                expected: "a comparison constant",
                found: other.describe(),
            })
        }
    };
    match op {
        Token::NotEqual if k == 0 => Ok(Predicate::NonZero),
        Token::NotEqual => Ok(Predicate::NotEqual(k)),
        Token::Greater => Ok(Predicate::GreaterThan(k)),
        Token::Less => Ok(Predicate::LessThan(k)),
        other => Err(ParseSqlError::Expected {
            expected: "a comparison (<>, !=, >, <)",
            found: other.describe(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_query() {
        let q = parse("SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g").unwrap();
        assert_eq!(q.table, "r");
        assert_eq!(q.query.group_by, "g");
        assert_eq!(q.query.value, "v");
        assert_eq!(q.query.aggregates, vec![AggFn::Count, AggFn::Sum]);
        assert!(q.query.filter.is_none());
    }

    #[test]
    fn parses_composite_group_by() {
        let q = parse(
            "SELECT city, age, COUNT(*), SUM(earnings) FROM people \
             GROUP BY city, age",
        )
        .unwrap();
        assert_eq!(q.query.group_by, "city");
        assert_eq!(q.query.group_by_rest, vec!["age".to_string()]);
        assert_eq!(q.query.value, "earnings");
    }

    #[test]
    fn parses_three_grouping_columns() {
        let q = parse("SELECT a, b, c, COUNT(*) FROM r GROUP BY a, b, c").unwrap();
        assert_eq!(q.query.group_columns(), vec!["a", "b", "c"]);
        assert_eq!(q.query.aggregates, vec![AggFn::Count]);
    }

    #[test]
    fn composite_group_by_list_must_match_select_list() {
        let err = parse("SELECT a, b, COUNT(*) FROM r GROUP BY a").unwrap_err();
        assert!(matches!(err, ParseSqlError::GroupByMismatch { .. }));
        let err = parse("SELECT a, b, COUNT(*) FROM r GROUP BY b, a").unwrap_err();
        assert!(matches!(err, ParseSqlError::GroupByMismatch { .. }));
    }

    #[test]
    fn case_insensitive_keywords_and_semicolon() {
        let q = parse("select age, count(*), avg(earnings) from people group by age;").unwrap();
        assert_eq!(q.table, "people");
        assert_eq!(q.query.aggregates, vec![AggFn::Count, AggFn::Avg]);
        assert_eq!(q.query.value, "earnings");
    }

    #[test]
    fn where_clause_not_equal() {
        let q = parse("SELECT g, SUM(v) FROM r WHERE w <> 9 GROUP BY g").unwrap();
        assert_eq!(q.query.filter, Some(("w".into(), Predicate::NotEqual(9))));
    }

    #[test]
    fn where_clause_nonzero_uses_the_dedicated_compare() {
        let q = parse("SELECT g, SUM(v) FROM r WHERE v != 0 GROUP BY g").unwrap();
        assert_eq!(q.query.filter, Some(("v".into(), Predicate::NonZero)));
    }

    #[test]
    fn where_clause_range_comparisons() {
        let q = parse("SELECT g, SUM(v) FROM r WHERE w > 100 GROUP BY g").unwrap();
        assert_eq!(
            q.query.filter,
            Some(("w".into(), Predicate::GreaterThan(100)))
        );
        let q = parse("SELECT g, SUM(v) FROM r WHERE w < 5 GROUP BY g").unwrap();
        assert_eq!(q.query.filter, Some(("w".into(), Predicate::LessThan(5))));
    }

    #[test]
    fn having_clause() {
        let q = parse("SELECT g, SUM(v) FROM r GROUP BY g HAVING COUNT(*) > 3").unwrap();
        let h = q.query.having.unwrap();
        assert_eq!(h.agg, AggFn::Count);
        assert_eq!(h.pred, Predicate::GreaterThan(3));
        // COUNT was pulled into the aggregate list so the engine
        // materialises it.
        assert!(q.query.aggregates.contains(&AggFn::Count));
    }

    #[test]
    fn having_rejects_mismatched_value_column() {
        let e = parse("SELECT g, SUM(v) FROM r GROUP BY g HAVING SUM(w) > 3").unwrap_err();
        assert_eq!(e, ParseSqlError::MixedValueColumns("v".into(), "w".into()));
    }

    #[test]
    fn order_by_group_and_aggregate() {
        let q = parse("SELECT g, SUM(v) FROM r GROUP BY g ORDER BY g").unwrap();
        let ob = q.query.order_by.unwrap();
        assert_eq!(ob.key, OrderKey::Group);
        assert!(!ob.desc);
        assert_eq!(ob.limit, None);

        let q = parse("SELECT g, SUM(v) FROM r GROUP BY g ORDER BY SUM(v) DESC LIMIT 10").unwrap();
        let ob = q.query.order_by.unwrap();
        assert_eq!(ob.key, OrderKey::Agg(AggFn::Sum));
        assert!(ob.desc);
        assert_eq!(ob.limit, Some(10));
    }

    #[test]
    fn order_by_asc_is_accepted_and_default() {
        let q = parse("SELECT g, SUM(v) FROM r GROUP BY g ORDER BY g ASC").unwrap();
        assert!(!q.query.order_by.unwrap().desc);
    }

    #[test]
    fn bare_limit_defaults_to_group_order() {
        let q = parse("SELECT g, SUM(v) FROM r GROUP BY g LIMIT 3").unwrap();
        let ob = q.query.order_by.unwrap();
        assert_eq!(ob.key, OrderKey::Group);
        assert_eq!(ob.limit, Some(3));
    }

    #[test]
    fn order_by_unknown_key_is_an_error() {
        let e = parse("SELECT g, SUM(v) FROM r GROUP BY g ORDER BY other").unwrap_err();
        assert!(matches!(e, ParseSqlError::Expected { .. }));
    }

    #[test]
    fn full_tail_roundtrips_through_sql_rendering() {
        let text = "SELECT g, COUNT(*), SUM(v) FROM r WHERE w > 2 GROUP BY g \
                    HAVING COUNT(*) <> 1 ORDER BY SUM(v) DESC LIMIT 5";
        let q = parse(text).unwrap();
        assert_eq!(q.query.sql("r"), text);
    }

    #[test]
    fn le_and_ge_are_rejected_with_guidance() {
        for bad in ["<=", ">="] {
            let e = parse(&format!(
                "SELECT g, SUM(v) FROM r WHERE w {bad} 1 GROUP BY g"
            ))
            .unwrap_err();
            assert_eq!(e, ParseSqlError::UnsupportedComparison(bad.into()));
        }
    }

    #[test]
    fn all_five_aggregates() {
        let q =
            parse("SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM r GROUP BY g").unwrap();
        assert_eq!(q.query.aggregates.len(), 5);
        assert!(q.query.needs_minmax());
    }

    #[test]
    fn count_star_only_query() {
        let q = parse("SELECT g, COUNT(*) FROM r GROUP BY g").unwrap();
        assert_eq!(q.query.aggregates, vec![AggFn::Count]);
    }

    #[test]
    fn numbers_allow_underscores() {
        let q = parse("SELECT g, SUM(v) FROM r WHERE w <> 10_000 GROUP BY g").unwrap();
        assert_eq!(
            q.query.filter,
            Some(("w".into(), Predicate::NotEqual(10_000)))
        );
    }

    #[test]
    fn rejects_equality_with_a_helpful_message() {
        let e = parse("SELECT g, SUM(v) FROM r WHERE w = 3 GROUP BY g").unwrap_err();
        assert!(matches!(e, ParseSqlError::UnsupportedComparison(_)));
        assert!(e.to_string().contains("Table III"));
    }

    #[test]
    fn rejects_mismatched_group_by() {
        let e = parse("SELECT g, SUM(v) FROM r GROUP BY h").unwrap_err();
        assert!(matches!(e, ParseSqlError::GroupByMismatch { .. }));
    }

    #[test]
    fn rejects_mixed_value_columns() {
        let e = parse("SELECT g, SUM(v), MIN(w) FROM r GROUP BY g").unwrap_err();
        assert_eq!(e, ParseSqlError::MixedValueColumns("v".into(), "w".into()));
    }

    #[test]
    fn rejects_unknown_aggregate() {
        let e = parse("SELECT g, MEDIAN(v) FROM r GROUP BY g").unwrap_err();
        assert_eq!(e, ParseSqlError::UnknownAggregate("MEDIAN".into()));
    }

    #[test]
    fn rejects_sum_star() {
        let e = parse("SELECT g, SUM(*) FROM r GROUP BY g").unwrap_err();
        assert!(matches!(e, ParseSqlError::Expected { .. }));
    }

    #[test]
    fn rejects_trailing_input() {
        let e = parse("SELECT g, SUM(v) FROM r GROUP BY g extra").unwrap_err();
        assert_eq!(e, ParseSqlError::TrailingInput("extra".into()));
        // ...including after a complete tail clause.
        let e = parse("SELECT g, SUM(v) FROM r GROUP BY g LIMIT 5 extra").unwrap_err();
        assert_eq!(e, ParseSqlError::TrailingInput("extra".into()));
    }

    #[test]
    fn rejects_truncated_statement() {
        let e = parse("SELECT g, SUM(v) FROM").unwrap_err();
        assert_eq!(e, ParseSqlError::UnexpectedEnd("the table name"));
    }

    #[test]
    fn rejects_garbage_characters() {
        let e = parse("SELECT g, SUM(v) FROM r GROUP BY g #").unwrap_err();
        assert_eq!(e, ParseSqlError::UnexpectedChar('#'));
    }

    #[test]
    fn duplicate_aggregates_are_deduplicated() {
        let q = parse("SELECT g, SUM(v), SUM(v), COUNT(*) FROM r GROUP BY g").unwrap();
        assert_eq!(q.query.aggregates, vec![AggFn::Sum, AggFn::Count]);
    }

    #[test]
    fn roundtrips_through_sql_rendering() {
        let text = "SELECT g, COUNT(*), SUM(v) FROM r WHERE w <> 9 GROUP BY g";
        let q = parse(text).unwrap();
        assert_eq!(q.query.sql(&q.table), text);
    }

    #[test]
    fn parses_explain_statements() {
        let s = parse_statement("EXPLAIN SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g").unwrap();
        match s {
            Statement::Explain(q) => {
                assert_eq!(q.table, "r");
                assert_eq!(q.query.group_by, "g");
            }
            other => panic!("expected EXPLAIN, parsed {other:?}"),
        }
        // Case-insensitive, like the other keywords.
        assert!(matches!(
            parse_statement("explain select g, sum(v) from r group by g").unwrap(),
            Statement::Explain(_)
        ));
        // A bare SELECT parses as a Select statement.
        assert!(matches!(
            parse_statement("SELECT g, SUM(v) FROM r GROUP BY g").unwrap(),
            Statement::Select(_)
        ));
    }

    #[test]
    fn parses_explain_analyze_statements() {
        let s = parse_statement("EXPLAIN ANALYZE SELECT g, SUM(v) FROM r GROUP BY g").unwrap();
        match s {
            Statement::ExplainAnalyze(q) => {
                assert_eq!(q.table, "r");
                assert_eq!(q.query.group_by, "g");
            }
            other => panic!("expected EXPLAIN ANALYZE, parsed {other:?}"),
        }
        assert!(matches!(
            parse_statement("explain analyze select g, sum(v) from r group by g").unwrap(),
            Statement::ExplainAnalyze(_)
        ));
        // ANALYZE only means something directly after EXPLAIN; elsewhere
        // it is an ordinary identifier (here: an unknown table's name).
        assert!(parse_statement("SELECT g, SUM(v) FROM analyze GROUP BY g").is_ok());
    }

    #[test]
    fn template_records_slots_in_sql_order() {
        let t = parse_template(
            "SELECT g, COUNT(*), SUM(v) FROM r WHERE w > ? GROUP BY g \
             HAVING SUM(v) <> ? ORDER BY SUM(v) DESC LIMIT ?",
        )
        .unwrap();
        assert_eq!(
            t.slots,
            vec![
                ParamSlot::FilterConstant,
                ParamSlot::HavingConstant,
                ParamSlot::Limit
            ]
        );
        // Sentinels hold the placeholder positions with the right kinds.
        assert_eq!(
            t.query.filter,
            Some(("w".into(), Predicate::GreaterThan(1)))
        );
        assert_eq!(t.query.having.unwrap().pred, Predicate::NotEqual(1));
        assert_eq!(t.query.order_by.unwrap().limit, Some(1));
    }

    #[test]
    fn template_without_placeholders_has_no_slots() {
        let t = parse_template("SELECT g, SUM(v) FROM r WHERE w <> 3 GROUP BY g").unwrap();
        assert!(t.slots.is_empty());
        assert_eq!(t.query.filter, Some(("w".into(), Predicate::NotEqual(3))));
    }

    #[test]
    fn template_not_equal_placeholder_stays_off_the_nonzero_compare() {
        // `<> ?` must keep the NotEqual kind: binding decides NonZero.
        let t = parse_template("SELECT g, SUM(v) FROM r WHERE w <> ? GROUP BY g").unwrap();
        assert_eq!(t.query.filter, Some(("w".into(), Predicate::NotEqual(1))));
    }

    #[test]
    fn template_rejects_explain() {
        let e = parse_template("EXPLAIN SELECT g, SUM(v) FROM r GROUP BY g").unwrap_err();
        assert_eq!(
            e,
            ParseSqlError::Expected {
                expected: "SELECT",
                found: "EXPLAIN".into()
            }
        );
    }

    #[test]
    fn placeholders_outside_prepare_are_rejected() {
        for sql in [
            "SELECT g, SUM(v) FROM r WHERE w > ? GROUP BY g",
            "SELECT g, SUM(v) FROM r GROUP BY g HAVING SUM(v) <> ?",
            "SELECT g, SUM(v) FROM r GROUP BY g LIMIT ?",
        ] {
            let e = parse(sql).unwrap_err();
            assert_eq!(e, ParseSqlError::UnboundPlaceholder, "{sql}");
            assert!(e.to_string().contains("prepare"));
        }
    }

    #[test]
    fn stray_placeholder_in_the_select_list_is_a_grammar_error() {
        let e = parse_template("SELECT ?, SUM(v) FROM r GROUP BY g").unwrap_err();
        assert!(matches!(e, ParseSqlError::Expected { .. }));
    }

    #[test]
    fn plain_parse_rejects_explain() {
        let e = parse("EXPLAIN SELECT g, SUM(v) FROM r GROUP BY g").unwrap_err();
        assert_eq!(
            e,
            ParseSqlError::Expected {
                expected: "SELECT",
                found: "EXPLAIN".into()
            }
        );
    }

    #[test]
    fn explain_of_malformed_select_reports_the_inner_error() {
        let e = parse_statement("EXPLAIN SELECT g, SUM(v) FROM").unwrap_err();
        assert_eq!(e, ParseSqlError::UnexpectedEnd("the table name"));
    }

    #[test]
    fn errors_implement_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync>() {}
        assert_error::<ParseSqlError>();
    }

    #[test]
    fn parses_transaction_brackets() {
        assert!(matches!(
            parse_statement("BEGIN READ ONLY").unwrap(),
            Statement::Begin { read_only: true }
        ));
        assert!(matches!(
            parse_statement("begin read only;").unwrap(),
            Statement::Begin { read_only: true }
        ));
        assert!(matches!(
            parse_statement("COMMIT").unwrap(),
            Statement::Commit
        ));
        assert!(matches!(
            parse_statement("commit;").unwrap(),
            Statement::Commit
        ));
        assert!(matches!(
            parse_statement("ROLLBACK").unwrap(),
            Statement::Rollback
        ));
        assert!(matches!(
            parse_statement("rollback;").unwrap(),
            Statement::Rollback
        ));
    }

    #[test]
    fn bare_begin_opens_a_write_transaction() {
        for sql in ["BEGIN", "BEGIN;", "BEGIN TRANSACTION", "begin transaction;"] {
            assert!(
                matches!(
                    parse_statement(sql).unwrap(),
                    Statement::Begin { read_only: false }
                ),
                "{sql} should open a write transaction"
            );
        }
        // Unknown qualifiers still get guidance.
        let e = parse_statement("BEGIN READ WRITE").unwrap_err();
        assert!(e.to_string().contains("ONLY"), "{e}");
        let e = parse_statement("BEGIN SOMETHING").unwrap_err();
        assert!(e.to_string().contains("TRANSACTION"), "{e}");
        assert_eq!(
            parse_statement("BEGIN READ ONLY extra").unwrap_err(),
            ParseSqlError::TrailingInput("extra".into())
        );
        assert_eq!(
            parse_statement("COMMIT extra").unwrap_err(),
            ParseSqlError::TrailingInput("extra".into())
        );
        assert_eq!(
            parse_statement("ROLLBACK extra").unwrap_err(),
            ParseSqlError::TrailingInput("extra".into())
        );
    }

    #[test]
    fn parses_delete_statements() {
        match parse_statement("DELETE FROM r WHERE g > 3;").unwrap() {
            Statement::Delete(d) => {
                assert_eq!(d.table, "r");
                assert_eq!(d.filter, Some(("g".into(), Predicate::GreaterThan(3))));
            }
            other => panic!("expected DELETE, parsed {other:?}"),
        }
        match parse_statement("delete from r").unwrap() {
            Statement::Delete(d) => {
                assert_eq!(d.table, "r");
                assert_eq!(d.filter, None, "no WHERE deletes every row");
            }
            other => panic!("expected DELETE, parsed {other:?}"),
        }
        assert_eq!(
            parse_statement("DELETE FROM r WHERE g > 3 extra").unwrap_err(),
            ParseSqlError::TrailingInput("extra".into())
        );
    }

    #[test]
    fn parses_update_statements() {
        match parse_statement("UPDATE r SET v = 9, w = 1 WHERE g <> 0;").unwrap() {
            Statement::Update(u) => {
                assert_eq!(u.table, "r");
                assert_eq!(u.sets, vec![("v".into(), 9), ("w".into(), 1)]);
                assert_eq!(u.filter, Some(("g".into(), Predicate::NonZero)));
            }
            other => panic!("expected UPDATE, parsed {other:?}"),
        }
        match parse_statement("update r set v = 5").unwrap() {
            Statement::Update(u) => {
                assert_eq!(u.sets, vec![("v".into(), 5)]);
                assert_eq!(u.filter, None, "no WHERE updates every row");
            }
            other => panic!("expected UPDATE, parsed {other:?}"),
        }
        // Typed errors: duplicate SET column, oversized value, missing `=`.
        assert_eq!(
            parse_statement("UPDATE r SET v = 1, v = 2").unwrap_err(),
            ParseSqlError::InsertDuplicateColumn("v".into())
        );
        assert_eq!(
            parse_statement("UPDATE r SET v = 4294967296").unwrap_err(),
            ParseSqlError::ConstantTooLarge {
                value: 4_294_967_296
            }
        );
        assert!(matches!(
            parse_statement("UPDATE r SET v 5").unwrap_err(),
            ParseSqlError::Expected { expected: "=", .. }
        ));
    }

    #[test]
    fn parses_create_snapshot() {
        match parse_statement("CREATE SNAPSHOT before_load;").unwrap() {
            Statement::CreateSnapshot(name) => assert_eq!(name, "before_load"),
            other => panic!("expected CREATE SNAPSHOT, parsed {other:?}"),
        }
        assert!(matches!(
            parse_statement("CREATE TABLE t").unwrap_err(),
            ParseSqlError::Expected {
                expected: "SNAPSHOT",
                ..
            }
        ));
    }

    #[test]
    fn parses_as_of_clauses() {
        let q = parse("SELECT g, SUM(v) FROM r AS OF before_load GROUP BY g").unwrap();
        assert_eq!(q.as_of, Some(AsOf::Name("before_load".into())));
        let q =
            parse("SELECT g, SUM(v) FROM r AS OF data_version 3 WHERE v > 1 GROUP BY g").unwrap();
        assert_eq!(q.as_of, Some(AsOf::DataVersion(3)));
        assert!(q.query.filter.is_some(), "WHERE still parses after AS OF");
        let q = parse("SELECT g, SUM(v) FROM r GROUP BY g").unwrap();
        assert_eq!(q.as_of, None);
        // `AS OF data_version` needs the number.
        assert!(matches!(
            parse("SELECT g, SUM(v) FROM r AS OF data_version GROUP BY g").unwrap_err(),
            ParseSqlError::Expected {
                expected: "a version number",
                ..
            }
        ));
    }

    #[test]
    fn templates_reject_as_of() {
        let e = parse_template("SELECT g, SUM(v) FROM r AS OF x GROUP BY g").unwrap_err();
        assert!(e.to_string().contains("prepared"), "{e}");
    }

    #[test]
    fn equality_in_update_where_is_still_rejected() {
        let e = parse_statement("UPDATE r SET v = 1 WHERE g = 2").unwrap_err();
        assert!(matches!(e, ParseSqlError::UnsupportedComparison(_)));
        let e = parse_statement("DELETE FROM r WHERE g = 2").unwrap_err();
        assert!(matches!(e, ParseSqlError::UnsupportedComparison(_)));
    }

    #[test]
    fn plain_parse_and_templates_reject_transaction_brackets() {
        assert_eq!(
            parse("BEGIN READ ONLY").unwrap_err(),
            ParseSqlError::Expected {
                expected: "SELECT",
                found: "BEGIN".into()
            }
        );
        assert_eq!(
            parse("COMMIT").unwrap_err(),
            ParseSqlError::Expected {
                expected: "SELECT",
                found: "COMMIT".into()
            }
        );
        assert!(matches!(
            parse_template("BEGIN READ ONLY").unwrap_err(),
            ParseSqlError::Expected { .. }
        ));
    }

    #[test]
    fn parses_insert_statements() {
        let s = parse_statement("INSERT INTO r (g, v) VALUES (1, 10), (2, 20);").unwrap();
        match s {
            Statement::Insert(ins) => {
                assert_eq!(ins.table, "r");
                assert_eq!(ins.columns, vec!["g".to_string(), "v".to_string()]);
                assert_eq!(ins.rows, vec![vec![1, 10], vec![2, 20]]);
            }
            _ => panic!("expected INSERT"),
        }
        // Case-insensitive keywords, single column, single tuple.
        let s = parse_statement("insert into t (x) values (7)").unwrap();
        match s {
            Statement::Insert(ins) => {
                assert_eq!(ins.table, "t");
                assert_eq!(ins.columns, vec!["x".to_string()]);
                assert_eq!(ins.rows, vec![vec![7]]);
            }
            _ => panic!("expected INSERT"),
        }
    }

    #[test]
    fn insert_arity_mismatch_is_a_typed_parse_error() {
        let e = parse_statement("INSERT INTO r (g, v) VALUES (1, 10), (2)").unwrap_err();
        assert_eq!(
            e,
            ParseSqlError::InsertArity {
                tuple: 2,
                expected: 2,
                got: 1
            }
        );
        assert!(e.to_string().contains("tuple 2"));
        let e = parse_statement("INSERT INTO r (g) VALUES (1, 2)").unwrap_err();
        assert_eq!(
            e,
            ParseSqlError::InsertArity {
                tuple: 1,
                expected: 1,
                got: 2
            }
        );
    }

    #[test]
    fn insert_duplicate_column_is_a_typed_parse_error() {
        let e = parse_statement("INSERT INTO r (g, g) VALUES (1, 2)").unwrap_err();
        assert_eq!(e, ParseSqlError::InsertDuplicateColumn("g".into()));
        assert!(e.to_string().contains("twice"));
    }

    #[test]
    fn insert_oversized_value_is_a_typed_parse_error() {
        let e = parse_statement("INSERT INTO r (g) VALUES (4294967296)").unwrap_err();
        assert_eq!(
            e,
            ParseSqlError::InsertValueTooLarge {
                tuple: 1,
                value: 4_294_967_296
            }
        );
        assert!(e.to_string().contains("32-bit"));
        // u32::MAX itself still fits.
        assert!(parse_statement("INSERT INTO r (g) VALUES (4294967295)").is_ok());
    }

    #[test]
    fn insert_grammar_errors_are_reported() {
        assert!(matches!(
            parse_statement("INSERT r (g) VALUES (1)").unwrap_err(),
            ParseSqlError::Expected {
                expected: "INTO",
                ..
            }
        ));
        assert!(matches!(
            parse_statement("INSERT INTO r VALUES (1)").unwrap_err(),
            ParseSqlError::Expected { .. }
        ));
        assert!(matches!(
            parse_statement("INSERT INTO r (g) VALUES (?)").unwrap_err(),
            ParseSqlError::Expected {
                expected: "a value",
                ..
            }
        ));
        assert_eq!(
            parse_statement("INSERT INTO r (g) VALUES (1) extra").unwrap_err(),
            ParseSqlError::TrailingInput("extra".into())
        );
        assert_eq!(
            parse_statement("INSERT INTO r (g) VALUES").unwrap_err(),
            ParseSqlError::UnexpectedEnd("(")
        );
    }

    #[test]
    fn oversized_numeric_literals_are_typed_errors_not_truncation() {
        // Beyond 64 bits: the lexer rejects instead of wrapping.
        let e =
            parse("SELECT g, SUM(v) FROM r WHERE v > 99999999999999999999 GROUP BY g").unwrap_err();
        assert_eq!(
            e,
            ParseSqlError::NumberTooLarge("99999999999999999999".into())
        );
        assert!(e.to_string().contains("64 bits"));
        // Fits u64 but not a 32-bit column value: the comparison
        // constant is rejected instead of silently truncated to 0.
        let e = parse("SELECT g, SUM(v) FROM r WHERE v <> 4294967296 GROUP BY g").unwrap_err();
        assert_eq!(
            e,
            ParseSqlError::ConstantTooLarge {
                value: 4_294_967_296
            }
        );
        let e = parse("SELECT g, SUM(v) FROM r GROUP BY g HAVING SUM(v) > 4294967296").unwrap_err();
        assert!(matches!(e, ParseSqlError::ConstantTooLarge { .. }));
        // u32::MAX itself still parses.
        assert!(parse("SELECT g, SUM(v) FROM r WHERE v < 4294967295 GROUP BY g").is_ok());
        // An over-u32 LIMIT saturates (it means "keep everything").
        let q = parse("SELECT g, SUM(v) FROM r GROUP BY g LIMIT 18446744073709551615").unwrap();
        assert_eq!(q.query.order_by.unwrap().limit, Some(usize::MAX));
    }

    #[test]
    fn plain_parse_and_templates_reject_insert() {
        let e = parse("INSERT INTO r (g) VALUES (1)").unwrap_err();
        assert_eq!(
            e,
            ParseSqlError::Expected {
                expected: "SELECT",
                found: "INSERT".into()
            }
        );
        let e = parse_template("INSERT INTO r (g) VALUES (1)").unwrap_err();
        assert!(matches!(e, ParseSqlError::Expected { .. }));
    }

    /// The front door's property: whatever a socket peer sends, both
    /// parsers return a value or a typed [`ParseSqlError`] — never a
    /// panic. The input is in the failure message.
    fn parses_or_fails_typed(sql: &str) {
        let outcome = std::panic::catch_unwind(|| {
            let _ = parse_statement(sql);
            let _ = parse_template(sql);
        });
        assert!(outcome.is_ok(), "a parser panicked on {sql:?}");
    }

    /// Every token the grammar knows, and a few it does not: keywords,
    /// identifiers (non-ASCII letters among them), `?`, numbers up to
    /// and past `u64::MAX`, every operator the lexer takes or rejects.
    const SOUP: &str = "SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT DESC ASC JOIN ON AND AS OF \
        data_version EXPLAIN ANALYZE INSERT INTO VALUES DELETE UPDATE SET CREATE SNAPSHOT BEGIN \
        READ ONLY COMMIT ROLLBACK COUNT SUM MIN MAX AVG g v r t _x événement 日本 ǅ Ω 0 1 7 \
        1_000 4294967295 4294967296 18446744073709551615 18446744073709551616 \
        99999999999999999999999 ? , . ( ) * <> != < > = <= >= ! ; - ' \" \\";

    /// Token soup: up to 40 tokens of `SOUP`, with or without the
    /// spaces between them (so neighbours also lex as one token).
    #[test]
    fn token_soup_never_panics_a_parser() {
        for case in 0..3_000u64 {
            let mut rng = crate::delta::Xorshift::new(case);
            let glue = if rng.below(4) == 0 { "" } else { " " };
            let soup: Vec<&str> = SOUP.split_whitespace().collect();
            let tokens: Vec<&str> = (0..rng.below(41))
                .map(|_| soup[rng.below(soup.len() as u64) as usize])
                .collect();
            parses_or_fails_typed(&tokens.join(glue));
        }
    }

    /// Near misses: a well-formed statement with one token dropped,
    /// doubled or replaced by soup — the inputs that reach deepest.
    #[test]
    fn mutated_statements_never_panic_a_parser() {
        let statements = [
            "SELECT g, COUNT(*), SUM(v) FROM r WHERE v > ? GROUP BY g HAVING SUM(v) > ? \
             ORDER BY SUM(v) DESC LIMIT ?",
            "SELECT a, b, MIN(v), MAX(v), AVG(v) FROM t GROUP BY a, b ORDER BY g LIMIT 3",
            "EXPLAIN ANALYZE SELECT l.g, COUNT(*) FROM l JOIN r ON l.k = r.k AND l.j = r.j \
             WHERE r.v <> ? GROUP BY l.g",
            "SELECT g, COUNT(*) FROM r AS OF data_version 3 GROUP BY g",
            "INSERT INTO r (g, v) VALUES (1, 2), (3, 4);",
            "UPDATE r SET v = 5, w = 6 WHERE g < 7",
            "DELETE FROM r WHERE g != 2",
            "CREATE SNAPSHOT s1",
            "BEGIN READ ONLY",
        ];
        let soup: Vec<&str> = SOUP.split_whitespace().collect();
        for case in 0..3_000u64 {
            let mut rng = crate::delta::Xorshift::new(case);
            let sql = statements[rng.below(statements.len() as u64) as usize];
            let mut tokens: Vec<&str> = sql.split(' ').collect();
            let at = rng.below(tokens.len() as u64) as usize;
            match rng.below(3) {
                0 => {
                    tokens.remove(at);
                }
                1 => tokens.insert(at, tokens[at]),
                _ => tokens[at] = soup[rng.below(soup.len() as u64) as usize],
            }
            parses_or_fails_typed(&tokens.join(" "));
        }
    }

    /// Arbitrary strings: printable ASCII, control characters and any
    /// Unicode scalar value, up to 60 of them.
    #[test]
    fn arbitrary_strings_never_panic_a_parser() {
        for case in 0..3_000u64 {
            let mut rng = crate::delta::Xorshift::new(case);
            let sql: String = (0..rng.below(61))
                .filter_map(|_| match rng.below(3) {
                    0 => char::from_u32(32 + rng.below(95) as u32),
                    1 => char::from_u32(rng.below(32) as u32),
                    _ => char::from_u32(rng.below(0x11_0000) as u32),
                })
                .collect();
            parses_or_fails_typed(&sql);
        }
    }
}
