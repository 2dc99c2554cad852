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

use crate::diff::{diff_appended, ProgramDiff};
use crate::model::NodeId;
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
    let mut builder = ConstraintBuilder::new();

    // Pass 1: function declarations (so formal references resolve anywhere).
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw);
        if let Some(rest) = line.strip_prefix("fun ") {
            let (name, arity) = parse_fun_decl(rest, lineno + 1)?;
            if builder.lookup_func(name).is_some() {
                return Err(TextError {
                    message: format!("function `{name}` declared twice"),
                    line: lineno + 1,
                });
            }
            builder.func(name, arity);
        }
    }

    // Pass 2: field-node declarations, in order (parents precede nested
    // fields in printed output).
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw);
        if let Some(rest) = line.strip_prefix("field ") {
            let (parent, field) = parse_field_ref(rest, lineno + 1)?;
            let parent = require(&mut builder, parent, lineno + 1)?;
            builder.field_node(parent, field);
        }
    }

    // Pass 3: constraints and calls.
    parse_body(&mut builder, text, 0)?;

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
    let parsed = parse_body(&mut builder, text, lines_before);
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

/// Pass 3: every constraint and call line of `text`, whose first line is
/// line `lines_before + 1` of the whole source. Declarations (passes 1
/// and 2) are skipped.
fn parse_body(
    builder: &mut ConstraintBuilder,
    text: &str,
    lines_before: usize,
) -> Result<(), TextError> {
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw);
        if line.is_empty() || is_declaration(line) {
            continue;
        }
        parse_line(builder, line, lines_before + lineno + 1)?;
    }
    Ok(())
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
/// `_` for none, anything else is a variable.
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
    if let Some((func_name, member)) = name.rsplit_once("::") {
        if let Some(func) = builder.lookup_func(func_name) {
            let info = builder.func_info(func);
            if member == "ret" {
                return Ok(Some(info.ret));
            }
            if let Some(idx) = member.strip_prefix("arg") {
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
            // `main::p` style qualified locals fall through to plain vars.
        }
    }
    // `parent.fN` refers to a declared field node.
    if let Some((parent, rest)) = name.rsplit_once(".f") {
        if let Ok(field) = rest.parse::<u32>() {
            if let Some(parent_node) =
                resolve_name(builder, parent, line)?.filter(|_| !parent.is_empty())
            {
                if let Some(node) = builder.lookup_field(parent_node, field) {
                    return Ok(Some(node));
                }
            }
        }
    }
    Ok(Some(builder.var(name)))
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
        // `&base->N` takes a field address.
        if let Some((base, field)) = obj.split_once("->") {
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
/// program.
pub fn print_constraints(cp: &ConstraintProgram) -> String {
    use crate::model::CalleeRef;
    use std::fmt::Write as _;

    let mut out = String::new();
    for info in cp.funcs().iter() {
        let _ = writeln!(
            out,
            "fun {}/{}",
            cp.interner().resolve(info.name),
            info.formals.len()
        );
    }
    for (parent, field, _) in cp.field_nodes() {
        let _ = writeln!(out, "field {}.{}", cp.display_node(parent), field);
    }
    for a in cp.addr_ofs() {
        let obj = match cp.node(a.obj).as_func() {
            Some(func) => cp.interner().resolve(cp.func(func).name).to_owned(),
            None => cp.display_node(a.obj),
        };
        let _ = writeln!(out, "{} = &{}", cp.display_node(a.dst), obj);
    }
    for c in cp.copies() {
        let _ = writeln!(
            out,
            "{} = {}",
            cp.display_node(c.dst),
            cp.display_node(c.src)
        );
    }
    for l in cp.loads() {
        let _ = writeln!(
            out,
            "{} = *{}",
            cp.display_node(l.dst),
            cp.display_node(l.ptr)
        );
    }
    for s in cp.stores() {
        let _ = writeln!(
            out,
            "*{} = {}",
            cp.display_node(s.ptr),
            cp.display_node(s.src)
        );
    }
    for fa in cp.field_addrs() {
        let _ = writeln!(
            out,
            "{} = &{}->{}",
            cp.display_node(fa.dst),
            cp.display_node(fa.base),
            fa.field
        );
    }
    for cs in cp.callsites().iter() {
        let (kw, callee) = match cs.callee {
            CalleeRef::Direct(func) => {
                ("call", cp.interner().resolve(cp.func(func).name).to_owned())
            }
            CalleeRef::Indirect(fp) => ("icall", cp.display_node(fp)),
        };
        let args: Vec<String> = cs
            .args
            .iter()
            .map(|a| match a {
                Some(node) => cp.display_node(*node),
                None => "_".to_owned(),
            })
            .collect();
        let _ = write!(out, "{kw} {callee}({})", args.join(", "));
        if let Some(ret) = cs.ret_dst {
            let _ = write!(out, " -> {}", cp.display_node(ret));
        }
        if let Some(caller) = cs.caller {
            let _ = write!(out, " in {}", cp.interner().resolve(cp.func(caller).name));
        }
        out.push('\n');
    }
    out
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
    fn rejects_bad_field_syntax() {
        assert!(parse_constraints("field o\n").is_err());
        assert!(parse_constraints("field .3\n").is_err());
        assert!(parse_constraints("x = &p->notanumber\n").is_err());
    }
}
