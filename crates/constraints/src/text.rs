//! A line-oriented textual constraint format.
//!
//! The original system stored pre-derived assignment databases produced by a
//! compile–link–analyze pipeline; this module plays that role as a plain
//! text format, used by the CLI, tests, and constraint dumps.
//!
//! ```text
//! # comment
//! fun id/1            # declare function `id` with 1 formal
//! p = &g              # address-of
//! q = p               # copy
//! r = *q              # load
//! *p = r              # store
//! call id(p) -> r     # direct call, result into r
//! icall fp(p, _)      # indirect call via fp, 2nd argument irrelevant
//! ```
//!
//! Field-sensitive programs declare field nodes with `field parent.N`
//! (creating the location `parent.fN`) and take field addresses with
//! `dst = &base->N`.
//!
//! Formals and return slots of declared functions are referenced as
//! `name::argN` and `name::ret`. Every other name denotes a variable node.
//! Printing a [`ConstraintProgram`] and re-parsing it yields an
//! analysis-equivalent program (temporaries and heap objects come back as
//! plain variables, which the analyses treat identically).
//!
//! [`parse_constraints`] scans the text once, sorting `fun` lines, `field`
//! lines and constraint lines into three lists, then runs one pass per
//! list in that order: functions, fields, constraints. So declarations
//! may sit anywhere, and the error reported is the first in pass order
//! (a bad `fun` line beats a bad `field` line above it, and either beats
//! every bad constraint line), not the first in the text.
//!
//! The declared arities together may not exceed the input's length in
//! bytes, since each formal becomes a node: a short line cannot make the
//! parser mint billions of them.

use crate::diff::{diff_appended, ProgramDiff};
use crate::model::{FuncId, NodeId};
use crate::program::{ConstraintBuilder, ConstraintProgram};

/// An error while parsing the textual format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TextError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line number.
    pub line: usize,
}

impl std::fmt::Display for TextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "constraint text error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for TextError {}

/// Parses the textual constraint format into a program.
///
/// # Errors
///
/// Returns [`TextError`] on malformed lines, unknown function references,
/// or out-of-range formal indices.
///
/// # Examples
///
/// ```
/// let cp = ddpa_constraints::parse_constraints(
///     "fun id/1\n p = &g\n call id(p) -> r\n",
/// )?;
/// assert_eq!(cp.addr_ofs().len(), 1);
/// assert_eq!(cp.callsites().len(), 1);
/// # Ok::<(), ddpa_constraints::TextError>(())
/// ```
pub fn parse_constraints(text: &str) -> Result<ConstraintProgram, TextError> {
    // One scan sorts the lines by kind; the passes then run in order.
    let (mut funs, mut fields, mut body) = (Vec::new(), Vec::new(), Vec::new());
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw);
        if let Some(rest) = line.strip_prefix("fun ") {
            funs.push((lineno + 1, rest));
        } else if let Some(rest) = line.strip_prefix("field ") {
            fields.push((lineno + 1, rest));
        } else if !line.is_empty() {
            body.push((lineno + 1, line));
        }
    }
    let mut builder = ConstraintBuilder::for_text(text.len());

    // Pass 1: function declarations (so formal references resolve anywhere).
    // Each formal is a node, so the declared arities together may not
    // exceed the input's length: no number read from the text sizes the
    // program beyond the text itself.
    let mut formals = 0usize;
    for (lineno, rest) in funs {
        let (name, arity) = parse_fun_decl(rest, lineno)?;
        formals = formals.saturating_add(arity);
        if formals > text.len() {
            return Err(TextError {
                message: format!(
                    "arity {arity} of `{name}` exceeds the input's length ({} bytes)",
                    text.len()
                ),
                line: lineno,
            });
        }
        if builder.lookup_func(name).is_some() {
            return Err(TextError {
                message: format!("function `{name}` declared twice"),
                line: lineno,
            });
        }
        builder.func(name, arity);
    }

    // Pass 2: field-node declarations, in order (parents precede nested
    // fields in printed output).
    for (lineno, rest) in fields {
        let (parent, field) = parse_field_ref(rest, lineno)?;
        let parent = require(&mut builder, parent, lineno)?;
        builder.field_node(parent, field);
    }

    // Pass 3: constraints and calls.
    for (lineno, line) in body {
        parse_line(&mut builder, line, lineno)?;
    }

    Ok(builder.build())
}

/// Appends the constraint lines of `text` to `cp` in place.
///
/// If `cp` is `parse_constraints(source)` and `source` has
/// `lines_before` lines, then afterwards `cp` is exactly the program
/// parsed from `source` followed by `text` on lines of its own — the
/// same ids, rows and printed text — provided `text` declares nothing. That holds because parsing
/// mints declaration ids first, then constraint ids in line order: lines
/// that declare nothing only mint ids after every existing one. The cost
/// is proportional to `text`, not to `cp`.
///
/// Returns the edit's diff, equal to
/// [`diff_programs`](crate::diff_programs)`(old, new)` but read off the
/// appended constraints alone.
///
/// # Errors
///
/// A malformed line yields the [`TextError`] `parse_constraints` would
/// report for the combined text (line numbers count from the start of
/// `source`), and leaves `cp` unchanged. So does a `fun` or `field`
/// declaration ([`has_declarations`]): it renumbers every later id, so
/// such an edit must be re-parsed whole.
///
/// # Examples
///
/// ```
/// use ddpa_constraints::{append_constraints, parse_constraints, print_constraints};
///
/// let mut cp = parse_constraints("p = &o\nq = p\n")?;
/// let diff = append_constraints(&mut cp, "r = q\n", 2)?;
/// assert_eq!(print_constraints(&cp), print_constraints(&parse_constraints("p = &o\nq = p\nr = q\n")?));
/// assert_eq!(diff.changed.len(), 1); // q gained a copy destination
/// let err = append_constraints(&mut cp, "oops\n", 3).expect_err("malformed");
/// assert_eq!(err.line, 4);
/// # Ok::<(), ddpa_constraints::TextError>(())
/// ```
pub fn append_constraints(
    cp: &mut ConstraintProgram,
    text: &str,
    lines_before: usize,
) -> Result<ProgramDiff, TextError> {
    if let Some(lineno) = text
        .lines()
        .position(|raw| is_declaration(strip_comment(raw)))
    {
        return Err(TextError {
            message: "`fun` and `field` declarations cannot be appended".into(),
            line: lines_before + lineno + 1,
        });
    }
    let mut builder = std::mem::take(cp).into_builder();
    let mark = builder.mark();
    // Pass 3 alone: there is nothing to declare.
    let parsed = text.lines().enumerate().try_for_each(|(lineno, raw)| {
        let line = strip_comment(raw);
        if line.is_empty() {
            return Ok(());
        }
        parse_line(&mut builder, line, lines_before + lineno + 1)
    });
    if parsed.is_err() {
        builder.rollback(&mark);
    }
    *cp = builder.build();
    parsed.map(|()| diff_appended(cp, &mark))
}

/// Whether `text` has a `fun` or `field` declaration line, which
/// [`append_constraints`] refuses.
pub fn has_declarations(text: &str) -> bool {
    text.lines().any(|raw| is_declaration(strip_comment(raw)))
}

fn is_declaration(line: &str) -> bool {
    line.starts_with("fun ") || line.starts_with("field ")
}

fn strip_comment(line: &str) -> &str {
    let body = match line.find('#') {
        Some(pos) => &line[..pos],
        None => line,
    };
    body.trim()
}

fn parse_fun_decl(rest: &str, line: usize) -> Result<(&str, usize), TextError> {
    let rest = rest.trim();
    let (name, arity) = rest.split_once('/').ok_or_else(|| TextError {
        message: format!("expected `fun name/arity`, found `fun {rest}`"),
        line,
    })?;
    let arity: usize = arity.trim().parse().map_err(|_| TextError {
        message: format!("invalid arity `{arity}`"),
        line,
    })?;
    let name = name.trim();
    if name.is_empty() {
        return Err(TextError {
            message: "empty function name".into(),
            line,
        });
    }
    Ok((name, arity))
}

/// Splits `parent.N` into its parts.
fn parse_field_ref(text: &str, line: usize) -> Result<(&str, u32), TextError> {
    let text = text.trim();
    let (parent, field) = text.rsplit_once('.').ok_or_else(|| TextError {
        message: format!("expected `parent.N`, found `{text}`"),
        line,
    })?;
    let field: u32 = field.parse().map_err(|_| TextError {
        message: format!("invalid field index in `{text}`"),
        line,
    })?;
    if parent.is_empty() {
        return Err(TextError {
            message: "empty field parent".into(),
            line,
        });
    }
    Ok((parent, field))
}

/// Resolves a name to a node: `f::argN` / `f::ret` for declared functions,
/// `parent.fN` for declared field nodes, `_` for none, anything else is a
/// variable (created on first use).
fn resolve_name(
    builder: &mut ConstraintBuilder,
    name: &str,
    line: usize,
) -> Result<Option<NodeId>, TextError> {
    let name = name.trim();
    if name.is_empty() {
        return Err(TextError {
            message: "empty name".into(),
            line,
        });
    }
    if name == "_" {
        return Ok(None);
    }
    Ok(Some(match declared_node(builder, name, line)? {
        Some(node) => node,
        None => builder.var(name),
    }))
}

/// The formal, return slot or field node that `name` (trimmed,
/// non-empty, not `_`) denotes, if it denotes one. Creates no node, so a
/// field reference on an unknown parent mints only the variable it names.
///
/// `parent.fN` refers to a declared field node of `parent`, which may
/// itself be a field reference. The chain of suffixes is walked without
/// recursion, down to the first name that is a formal or return slot or
/// no field reference at all, and then resolved back outward. Each name
/// on the way is a prefix of `name`, so the `::` search resumes where the
/// last one stopped instead of rescanning the prefix, and a prefix's
/// variable lookup hashes it only if some interned name has its length
/// (see [`ddpa_support::Interner::lookup`]).
fn declared_node(
    builder: &ConstraintBuilder,
    name: &str,
    line: usize,
) -> Result<Option<NodeId>, TextError> {
    let mut fields: Vec<(&str, u32)> = Vec::new();
    let mut path = PathSplit::new(name);
    let mut current = name;
    let mut node = loop {
        if let Some(node) = path.declared_slot(builder, current, line)? {
            break Some(node);
        }
        // The rightmost `.` starts the only `.f` suffix that can hold a
        // bare index.
        let field_ref = current.rsplit_once('.').and_then(|(parent, rest)| {
            let parent = parent.trim();
            let field = rest.strip_prefix('f')?.parse::<u32>().ok()?;
            (!parent.is_empty() && parent != "_").then_some((parent, field))
        });
        match field_ref {
            Some((parent, field)) => {
                fields.push((parent, field));
                current = parent;
            }
            None => break None,
        }
    };
    for &(parent, field) in fields.iter().rev() {
        let parent = node.or_else(|| builder.lookup_var(parent));
        node = parent.and_then(|p| builder.lookup_field(p, field));
    }
    Ok(node)
}

/// The rightmost `::` of successively shorter prefixes of one name, and
/// the function it names, found by one backward scan in all.
struct PathSplit<'a> {
    name: &'a str,
    /// Index of the second `:` of the rightmost `::` seen, if any.
    colon: Option<usize>,
    /// `lookup_func` of the text before `colon`, once asked.
    func: Option<Option<FuncId>>,
}

impl<'a> PathSplit<'a> {
    fn new(name: &'a str) -> Self {
        PathSplit {
            name,
            colon: rsplit_colon(name),
            func: None,
        }
    }

    /// The formal or return slot `prefix` (a prefix of the name) denotes,
    /// if it is `func::ret` or `func::argN` of a declared function. Other
    /// qualified names (`main::p` style locals) are plain variables,
    /// whatever their prefix names.
    fn declared_slot(
        &mut self,
        builder: &ConstraintBuilder,
        prefix: &str,
        line: usize,
    ) -> Result<Option<NodeId>, TextError> {
        debug_assert_eq!(prefix.as_ptr(), self.name.as_ptr());
        if self.colon.is_some_and(|c| c >= prefix.len()) {
            self.colon = rsplit_colon(&self.name[..prefix.len()]);
            self.func = None;
        }
        let Some(colon) = self.colon else {
            return Ok(None);
        };
        let (func_name, member) = (&self.name[..colon - 1], &prefix[colon + 1..]);
        if member != "ret" && !member.starts_with("arg") {
            return Ok(None);
        }
        let Some(func) = *self
            .func
            .get_or_insert_with(|| builder.lookup_func(func_name))
        else {
            return Ok(None);
        };
        let info = builder.func_info(func);
        if member == "ret" {
            return Ok(Some(info.ret));
        }
        let idx = &member["arg".len()..];
        let idx: usize = idx.parse().map_err(|_| TextError {
            message: format!("invalid formal reference `{prefix}`"),
            line,
        })?;
        match info.formals.get(idx) {
            Some(&node) => Ok(Some(node)),
            None => Err(TextError {
                message: format!(
                    "function `{func_name}` has {} formal(s), no `arg{idx}`",
                    info.formals.len()
                ),
                line,
            }),
        }
    }
}

/// The index of the second `:` of the rightmost `::` in `name`,
/// searching for the `:` character: a string pattern would set up a
/// substring searcher for every name.
fn rsplit_colon(name: &str) -> Option<usize> {
    let mut end = name.len();
    while let Some(colon) = name[..end].rfind(':') {
        if colon > 0 && name.as_bytes()[colon - 1] == b':' {
            return Some(colon);
        }
        end = colon;
    }
    None
}

fn require(builder: &mut ConstraintBuilder, name: &str, line: usize) -> Result<NodeId, TextError> {
    resolve_name(builder, name, line)?.ok_or_else(|| TextError {
        message: "`_` is not allowed here".into(),
        line,
    })
}

fn parse_line(builder: &mut ConstraintBuilder, line: &str, lineno: usize) -> Result<(), TextError> {
    if let Some(rest) = line
        .strip_prefix("call ")
        .or_else(|| line.strip_prefix("icall "))
    {
        let indirect = line.starts_with("icall ");
        return parse_call(builder, rest, indirect, lineno);
    }

    let (lhs, rhs) = line.split_once('=').ok_or_else(|| TextError {
        message: format!("expected `=` in `{line}`"),
        line: lineno,
    })?;
    let (lhs, rhs) = (lhs.trim(), rhs.trim());

    if let Some(ptr) = lhs.strip_prefix('*') {
        // *ptr = src
        let ptr = require(builder, ptr, lineno)?;
        let src = require(builder, rhs, lineno)?;
        builder.store(ptr, src);
    } else if let Some(obj) = rhs.strip_prefix('&') {
        let dst = require(builder, lhs, lineno)?;
        let obj = obj.trim();
        // `&base->N` takes a field address. Checking for `>` first spares
        // every other line a substring search.
        let arrow = if obj.contains('>') {
            obj.split_once("->")
        } else {
            None
        };
        if let Some((base, field)) = arrow {
            let field: u32 = field.trim().parse().map_err(|_| TextError {
                message: format!("invalid field index in `&{obj}`"),
                line: lineno,
            })?;
            let base = require(builder, base, lineno)?;
            builder.field_addr(dst, base, field);
            return Ok(());
        }
        // A function name after `&` means its function object.
        let obj_node = match builder.lookup_func(obj) {
            Some(func) => builder.func_info(func).object,
            None => require(builder, obj, lineno)?,
        };
        builder.addr_of(dst, obj_node);
    } else if let Some(ptr) = rhs.strip_prefix('*') {
        let dst = require(builder, lhs, lineno)?;
        let ptr = require(builder, ptr, lineno)?;
        builder.load(dst, ptr);
    } else {
        let dst = require(builder, lhs, lineno)?;
        let src = require(builder, rhs, lineno)?;
        builder.copy(dst, src);
    }
    Ok(())
}

fn parse_call(
    builder: &mut ConstraintBuilder,
    rest: &str,
    indirect: bool,
    lineno: usize,
) -> Result<(), TextError> {
    let open = rest.find('(').ok_or_else(|| TextError {
        message: "expected `(` in call".into(),
        line: lineno,
    })?;
    let close = rest.rfind(')').ok_or_else(|| TextError {
        message: "expected `)` in call".into(),
        line: lineno,
    })?;
    if close < open {
        return Err(TextError {
            message: "mismatched parentheses".into(),
            line: lineno,
        });
    }
    let callee = rest[..open].trim();
    let args_text = &rest[open + 1..close];
    let tail = rest[close + 1..].trim();

    let mut args = Vec::new();
    if !args_text.trim().is_empty() {
        for arg in args_text.split(',') {
            args.push(resolve_name(builder, arg, lineno)?);
        }
    }

    // Tail: optional `-> ret`, optional `in caller`.
    let tokens: Vec<&str> = tail.split_whitespace().collect();
    let (ret_dst, caller_name) = match tokens.as_slice() {
        [] => (None, None),
        ["->", r] => (resolve_name(builder, r, lineno)?, None),
        ["in", g] => (None, Some(*g)),
        ["->", r, "in", g] => (resolve_name(builder, r, lineno)?, Some(*g)),
        _ => {
            return Err(TextError {
                message: format!("unexpected trailing `{tail}`"),
                line: lineno,
            })
        }
    };
    let caller = match caller_name {
        Some(name) => Some(builder.lookup_func(name).ok_or_else(|| TextError {
            message: format!("unknown caller function `{name}`"),
            line: lineno,
        })?),
        None => None,
    };

    let cs = if indirect {
        let fp = require(builder, callee, lineno)?;
        builder.call_indirect(fp, args, ret_dst)
    } else {
        let func = builder.lookup_func(callee).ok_or_else(|| TextError {
            message: format!("call to undeclared function `{callee}` (declare with `fun`)"),
            line: lineno,
        })?;
        builder.call_direct(func, args, ret_dst)
    };
    if let Some(caller) = caller {
        builder.set_caller(cs, caller);
    }
    Ok(())
}

/// Renders `cp` in the textual constraint format.
///
/// The output re-parses ([`parse_constraints`]) to an analysis-equivalent
/// program. Every name is written straight into the output
/// ([`ConstraintProgram::write_node`]), so printing allocates the output
/// and the field list, not a string per name.
pub fn print_constraints(cp: &ConstraintProgram) -> String {
    use crate::model::CalleeRef;
    use std::fmt::Write as _;

    let func_name = |func: FuncId| cp.interner().resolve(cp.func(func).name);
    let lines = cp.funcs().len() + cp.num_constraints() + cp.callsites().len();
    let mut out = String::with_capacity(lines * BYTES_PER_LINE);
    // Writing into a `String` cannot fail.
    for info in cp.funcs().iter() {
        let _ = writeln!(
            out,
            "fun {}/{}",
            cp.interner().resolve(info.name),
            info.formals.len()
        );
    }
    for (parent, field, _) in cp.field_nodes() {
        out.push_str("field ");
        cp.write_node(&mut out, parent);
        let _ = writeln!(out, ".{field}");
    }
    for a in cp.addr_ofs() {
        cp.write_node(&mut out, a.dst);
        out.push_str(" = &");
        match cp.node(a.obj).as_func() {
            Some(func) => out.push_str(func_name(func)),
            None => cp.write_node(&mut out, a.obj),
        }
        out.push('\n');
    }
    let pair = |out: &mut String, a: NodeId, sep: &str, b: NodeId| {
        cp.write_node(out, a);
        out.push_str(sep);
        cp.write_node(out, b);
        out.push('\n');
    };
    for c in cp.copies() {
        pair(&mut out, c.dst, " = ", c.src);
    }
    for l in cp.loads() {
        pair(&mut out, l.dst, " = *", l.ptr);
    }
    for s in cp.stores() {
        out.push('*');
        pair(&mut out, s.ptr, " = ", s.src);
    }
    for fa in cp.field_addrs() {
        cp.write_node(&mut out, fa.dst);
        out.push_str(" = &");
        cp.write_node(&mut out, fa.base);
        let _ = writeln!(out, "->{}", fa.field);
    }
    for cs in cp.callsites().iter() {
        match cs.callee {
            CalleeRef::Direct(func) => {
                out.push_str("call ");
                out.push_str(func_name(func));
            }
            CalleeRef::Indirect(fp) => {
                out.push_str("icall ");
                cp.write_node(&mut out, fp);
            }
        }
        out.push('(');
        for (i, arg) in cs.args.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match arg {
                Some(node) => cp.write_node(&mut out, *node),
                None => out.push('_'),
            }
        }
        out.push(')');
        if let Some(ret) = cs.ret_dst {
            out.push_str(" -> ");
            cp.write_node(&mut out, ret);
        }
        if let Some(caller) = cs.caller {
            out.push_str(" in ");
            out.push_str(func_name(caller));
        }
        out.push('\n');
    }
    out
}

/// The printout bytes [`print_constraints`] reserves per line; printed
/// MiniC programs run about 24.
const BYTES_PER_LINE: usize = 32;

/// The canonical form of `cp`: its printout, and the program parsed back
/// from that printout.
///
/// Node ids follow first appearance in the text, and the printer groups
/// constraints by kind, so a program lowered from MiniC, or parsed from
/// text in another order, numbers its nodes differently from the parse of
/// its own printout. Whatever binds node ids to the printed text — a
/// snapshot, a session that appends edits to it — must run on the
/// canonical program. `parsed_from` is the constraint text `cp` was
/// parsed from, if any: when that text already is its own printout, `cp`
/// is returned as it is, without a second parse.
///
/// # Errors
///
/// Returns [`TextError`] if the printout does not parse back.
///
/// # Examples
///
/// ```
/// use ddpa_constraints::{canonicalize, parse_constraints, NodeId};
///
/// // `q` appears first here, but the printer puts `p = &o` first.
/// let text = "q = p\np = &o\n";
/// let (cp, source) = canonicalize(parse_constraints(text)?, Some(text))?;
/// assert_eq!(cp.display_node(NodeId::from_u32(0)), "p");
/// assert_eq!(canonicalize(cp, Some(&source))?.1, source);
/// # Ok::<(), ddpa_constraints::TextError>(())
/// ```
pub fn canonicalize(
    cp: ConstraintProgram,
    parsed_from: Option<&str>,
) -> Result<(ConstraintProgram, String), TextError> {
    let source = print_constraints(&cp);
    if parsed_from == Some(source.as_str()) {
        return Ok((cp, source));
    }
    drop(cp);
    Ok((parse_constraints(&source)?, source))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_constraint_forms() {
        let cp = parse_constraints(
            "# demo\n\
             fun f/2\n\
             p = &g\n\
             q = p\n\
             r = *q\n\
             *p = r\n\
             call f(p, _) -> r\n\
             icall fp(q)\n",
        )
        .expect("parses");
        assert_eq!(cp.addr_ofs().len(), 1);
        assert_eq!(cp.copies().len(), 1);
        assert_eq!(cp.loads().len(), 1);
        assert_eq!(cp.stores().len(), 1);
        assert_eq!(cp.callsites().len(), 2);
        assert_eq!(cp.indirect_callsites().len(), 1);
    }

    #[test]
    fn resolves_formal_and_ret_references() {
        let cp = parse_constraints(
            "fun f/1\n\
             f::arg0 = &g\n\
             r = f::ret\n",
        )
        .expect("parses");
        let f = cp.funcs().iter().next().expect("f declared");
        assert_eq!(cp.addr_ofs()[0].dst, f.formals[0]);
        assert_eq!(cp.copies()[0].src, f.ret);
    }

    #[test]
    fn address_of_function_uses_object() {
        let cp = parse_constraints("fun f/0\nfp = &f\n").expect("parses");
        let f = cp.funcs().iter().next().expect("f declared");
        assert_eq!(cp.addr_ofs()[0].obj, f.object);
    }

    #[test]
    fn rejects_call_to_undeclared_function() {
        let err = parse_constraints("call f(x)\n").expect_err("rejects");
        assert!(err.message.contains("undeclared"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn rejects_out_of_range_formal() {
        let err = parse_constraints("fun f/1\nx = f::arg3\n").expect_err("rejects");
        assert!(err.message.contains("no `arg3`"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_constraints("just words\n").is_err());
        assert!(parse_constraints("fun broken\n").is_err());
        assert!(parse_constraints("call f(x\n").is_err());
        assert!(parse_constraints("x = _\n").is_err());
    }

    #[test]
    fn print_parse_roundtrip_is_equivalent() {
        let text = "fun f/1\n\
                    p = &g\n\
                    q = p\n\
                    r = *q\n\
                    *p = q\n\
                    fp = &f\n\
                    call f(p) -> r\n\
                    icall fp(q) -> s\n";
        let cp1 = parse_constraints(text).expect("parses");
        let printed = print_constraints(&cp1);
        let cp2 = parse_constraints(&printed).expect("reparses");
        assert_eq!(cp1.addr_ofs().len(), cp2.addr_ofs().len());
        assert_eq!(cp1.copies().len(), cp2.copies().len());
        assert_eq!(cp1.loads().len(), cp2.loads().len());
        assert_eq!(cp1.stores().len(), cp2.stores().len());
        assert_eq!(cp1.callsites().len(), cp2.callsites().len());
        assert_eq!(print_constraints(&cp2), printed, "printing is a fixpoint");
    }
}

#[cfg(test)]
mod field_tests {
    use super::*;

    #[test]
    fn parses_field_declarations_and_addresses() {
        let cp = parse_constraints(
            "field o.0\n\
             field o.1\n\
             p = &o\n\
             f0 = &p->0\n\
             f1 = &p->1\n\
             *f0 = p\n",
        )
        .expect("parses");
        assert_eq!(cp.field_addrs().len(), 2);
        let o = cp
            .node_ids()
            .find(|&n| cp.display_node(n) == "o")
            .expect("o");
        assert!(cp.field_of(o, 0).is_some());
        assert!(cp.field_of(o, 1).is_some());
        assert!(cp.field_of(o, 2).is_none());
    }

    #[test]
    fn field_node_names_resolve() {
        let cp = parse_constraints(
            "field o.0\n\
             x = &o.f0\n",
        )
        .expect("parses");
        let o = cp
            .node_ids()
            .find(|&n| cp.display_node(n) == "o")
            .expect("o");
        let fld = cp.field_of(o, 0).expect("field node");
        assert_eq!(cp.addr_ofs()[0].obj, fld);
    }

    #[test]
    fn nested_fields_roundtrip() {
        let text = "field o.0\n\
                    field o.f0.2\n\
                    p = &o\n\
                    q = &p->0\n\
                    r = &q->2\n";
        let cp = parse_constraints(text).expect("parses");
        let printed = print_constraints(&cp);
        let cp2 = parse_constraints(&printed).expect("reparses");
        assert_eq!(print_constraints(&cp2), printed, "fixpoint");
        assert_eq!(cp2.field_addrs().len(), 2);
        assert_eq!(cp2.field_nodes().len(), 2);
    }

    #[test]
    fn field_names_on_unknown_parents_create_only_themselves() {
        let cp = parse_constraints("p = &x.f1\n").expect("parses");
        let names: Vec<String> = cp.node_ids().map(|n| cp.display_node(n)).collect();
        assert_eq!(names, ["p", "x.f1"], "no phantom `x`");
        // A declared parent without that field is looked up, not minted.
        let cp = parse_constraints("field x.0\np = &x.f1\n").expect("parses");
        assert_eq!(cp.num_nodes(), 4, "x, x.f0, p and the variable x.f1");
    }

    #[test]
    fn field_names_with_empty_parents_are_variables() {
        let cp = parse_constraints("x = &.f3\n").expect("parses");
        assert_eq!(cp.display_node(cp.addr_ofs()[0].obj), ".f3");
        let cp = parse_constraints("x = &_.f0\n").expect("parses");
        assert_eq!(cp.display_node(cp.addr_ofs()[0].obj), "_.f0");
    }

    #[test]
    fn rejects_bad_field_syntax() {
        assert!(parse_constraints("field o\n").is_err());
        assert!(parse_constraints("field .3\n").is_err());
        assert!(parse_constraints("x = &p->notanumber\n").is_err());
    }

    /// `declared_node` as it was written before the suffix walk, one
    /// recursion per `.fN` suffix: the oracle for the iterative walk.
    fn recursive_declared_node(
        builder: &ConstraintBuilder,
        name: &str,
        line: usize,
    ) -> Result<Option<NodeId>, TextError> {
        if let Some(colon) = rsplit_colon(name) {
            let (func_name, member) = (&name[..colon - 1], &name[colon + 1..]);
            let slot = member == "ret" || member.starts_with("arg");
            if let Some(func) = slot.then(|| builder.lookup_func(func_name)).flatten() {
                let info = builder.func_info(func);
                if member == "ret" {
                    return Ok(Some(info.ret));
                }
                let idx = &member["arg".len()..];
                let idx: usize = idx.parse().map_err(|_| TextError {
                    message: format!("invalid formal reference `{name}`"),
                    line,
                })?;
                return match info.formals.get(idx) {
                    Some(&node) => Ok(Some(node)),
                    None => Err(TextError {
                        message: format!(
                            "function `{func_name}` has {} formal(s), no `arg{idx}`",
                            info.formals.len()
                        ),
                        line,
                    }),
                };
            }
        }
        let field_ref = name.rsplit_once('.').and_then(|(parent, rest)| {
            let parent = parent.trim();
            let field = rest.strip_prefix('f')?.parse::<u32>().ok()?;
            (!parent.is_empty() && parent != "_").then_some((parent, field))
        });
        if let Some((parent, field)) = field_ref {
            let parent = match recursive_declared_node(builder, parent, line)? {
                Some(node) => Some(node),
                None => builder.lookup_var(parent),
            };
            if let Some(node) = parent.and_then(|p| builder.lookup_field(p, field)) {
                return Ok(Some(node));
            }
        }
        Ok(None)
    }

    #[test]
    fn suffix_walk_matches_the_recursive_oracle() {
        let mut b = ConstraintBuilder::new();
        let f = b.func("f", 2);
        let ret = b.func_info(f).ret;
        b.func("a::f", 1);
        let x = b.var("x");
        let x1 = b.field_node(x, 1);
        b.field_node(x1, 2);
        b.field_node(ret, 0);
        let dotted = b.var("y.f1");
        b.field_node(dotted, 3);
        let bases = [
            "x",
            "y",
            "y.f1",
            "f",
            "f::ret",
            "f::arg0",
            "f::arg1",
            "f::arg5",
            "f::argv",
            "a::f::ret",
            "a::f::arg0",
            "b::ret",
            "::ret",
            "_",
            " ",
            ":",
            "f:",
        ];
        let suffixes = [
            ".f0", ".f1", ".f2", ".f3", ".f9", " .f1", ".f", ".", ".g1", "::ret", "::arg0", ":",
            "_",
        ];
        let mut rng = ddpa_support::Rng::seed_from_u64(0x7e47);
        let mut seen = [0usize; 3];
        for _ in 0..20_000 {
            let mut name = String::from(bases[rng.gen_range(0..bases.len())]);
            for _ in 0..rng.gen_range(0..5usize) {
                name.push_str(suffixes[rng.gen_range(0..suffixes.len())]);
            }
            let name = name.trim();
            if name.is_empty() || name == "_" {
                continue;
            }
            let got = declared_node(&b, name, 3);
            assert_eq!(got, recursive_declared_node(&b, name, 3), "{name:?}");
            seen[match got {
                Ok(None) => 0,
                Ok(Some(_)) => 1,
                Err(_) => 2,
            }] += 1;
        }
        assert!(seen.iter().all(|&n| n > 100), "{seen:?}");
    }

    #[test]
    fn declared_nested_field_chain_resolves_to_its_field_node() {
        let cp = parse_constraints(
            "fun f/1\n\
             field x.1\n\
             field x.f1.2\n\
             field f::ret.0\n\
             p = &x.f1.f2\n\
             q = &f::ret.f0\n\
             r = &x.f1.f9\n",
        )
        .expect("parses");
        let x = cp
            .node_ids()
            .find(|&n| cp.display_node(n) == "x")
            .expect("x");
        let ret = cp.funcs().iter().next().expect("f").ret;
        let field = |parent, idx| {
            cp.field_nodes()
                .into_iter()
                .find(|&(p, f, _)| p == parent && f == idx)
                .map(|(_, _, node)| node)
                .expect("declared field")
        };
        let objs: Vec<NodeId> = cp.addr_ofs().iter().map(|a| a.obj).collect();
        assert_eq!(objs[0], field(field(x, 1), 2));
        assert_eq!(objs[1], field(ret, 0));
        // An undeclared suffix names a plain variable.
        assert_eq!(cp.display_node(objs[2]), "x.f1.f9");
    }

    #[test]
    fn arity_beyond_the_input_length_is_an_error() {
        let err = parse_constraints("fun f/4000000000").expect_err("bounded arity");
        assert_eq!(err.line, 1);
        assert_eq!(
            err.message,
            "arity 4000000000 of `f` exceeds the input's length (16 bytes)"
        );
        // The bound is on the sum: many declarations cannot add up past it.
        let text = "fun f/20\nfun g/20\n";
        assert!(parse_constraints(text).is_err());
        let cp = parse_constraints("fun f/4\nfun g/3\n").expect("within the bound");
        assert_eq!(cp.funcs().len(), 2);
    }

    #[test]
    fn long_field_suffix_chain_parses_on_a_small_stack() {
        let mut text = String::from("p = &x");
        for _ in 0..200_000 {
            text.push_str(".f1");
        }
        text.push('\n');
        let parsed = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || parse_constraints(&text).map(|cp| cp.addr_ofs().len()))
            .expect("spawns")
            .join()
            .expect("no stack overflow");
        assert_eq!(parsed, Ok(1));
    }
}
