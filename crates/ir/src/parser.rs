//! Recursive-descent parser for MiniC.
//!
//! Statements and expressions nest at most [`MAX_DEPTH`] deep. Deeper
//! input is a [`ParseError`], not a stack overflow, and the checker and
//! lowering, which recurse over the same tree, inherit the bound.

use ddpa_support::Symbol;

use crate::ast::*;
use crate::lexer::{lex, LexError};
use crate::token::{Span, Token, TokenKind};

/// Nesting cap: a statement or expression may sit at most this many
/// statements and expressions deep (counting itself).
pub const MAX_DEPTH: usize = 64;

/// An error produced while parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Location of the offending token.
    pub span: Span,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(err: LexError) -> Self {
        ParseError {
            message: err.message,
            span: err.span,
        }
    }
}

/// Parses MiniC source into a [`Program`].
///
/// # Errors
///
/// Returns [`ParseError`] on the first lexical or syntactic error.
///
/// # Examples
///
/// ```
/// let program = ddpa_ir::parse("int *g; void main() { g = &g; }")?;
/// assert_eq!(program.globals().count(), 1);
/// # Ok::<(), ddpa_ir::ParseError>(())
/// ```
pub fn parse(source: &str) -> Result<Program, ParseError> {
    let tokens = lex(source)?;
    Parser {
        tokens,
        pos: 0,
        depth: 0,
        program: Program::new(),
    }
    .run()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Statements and expressions currently open.
    depth: usize,
    program: Program,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, offset: usize) -> &TokenKind {
        let idx = (self.pos + offset).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Token {
        let token = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        token
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            span: self.span(),
        }
    }

    /// `expected {what}, found <the current token>`.
    #[cold]
    fn expected(&self, what: &str) -> ParseError {
        self.error(format!("expected {what}, found {}", self.peek().describe()))
    }

    /// Runs `parse` one nesting level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: fn(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    #[cold]
    fn too_deep(&self) -> ParseError {
        self.error(format!("nesting deeper than {MAX_DEPTH}"))
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, ParseError> {
        if self.peek() == kind {
            Ok(self.bump())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().describe()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<(Symbol, Span), ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                let span = self.span();
                self.bump();
                Ok((self.program.interner.intern(&name), span))
            }
            other => Err(self.error(format!("expected identifier, found {}", other.describe()))),
        }
    }

    fn run(mut self) -> Result<Program, ParseError> {
        while *self.peek() != TokenKind::Eof {
            let item = self.item()?;
            self.program.items.push(item);
        }
        Ok(self.program)
    }

    fn ty(&mut self) -> Result<Ty, ParseError> {
        let base = match self.peek() {
            TokenKind::KwInt => {
                self.bump();
                BaseTy::Int
            }
            TokenKind::KwVoid => {
                self.bump();
                BaseTy::Void
            }
            TokenKind::KwStruct => {
                self.bump();
                let (name, _) = self.expect_ident()?;
                BaseTy::Struct(name)
            }
            other => {
                return Err(self.error(format!(
                    "expected a type (`int`, `void`, or `struct S`), found {}",
                    other.describe()
                )))
            }
        };
        let mut depth: u8 = 0;
        while *self.peek() == TokenKind::Star {
            self.bump();
            depth = depth
                .checked_add(1)
                .ok_or_else(|| self.error("pointer depth exceeds 255"))?;
        }
        Ok(Ty { base, depth })
    }

    fn item(&mut self) -> Result<Item, ParseError> {
        let span = self.span();
        // `struct S { ... };` is a declaration; `struct S *x;` a global.
        if *self.peek() == TokenKind::KwStruct
            && matches!(self.peek_at(1), TokenKind::Ident(_))
            && *self.peek_at(2) == TokenKind::LBrace
        {
            return self.struct_decl(span).map(Item::Struct);
        }
        let ty = self.ty()?;
        let (name, _) = self.expect_ident()?;
        if *self.peek() == TokenKind::LParen {
            let function = self.function(ty, name, span)?;
            Ok(Item::Function(function))
        } else {
            let array = self.array_suffix()?;
            let init = if *self.peek() == TokenKind::Eq {
                self.bump();
                Some(self.expr()?)
            } else {
                None
            };
            self.expect(&TokenKind::Semi)?;
            Ok(Item::Global(Global {
                name,
                ty,
                array,
                init,
                span,
            }))
        }
    }

    /// Parses an optional `[N]` array suffix on a declaration.
    fn array_suffix(&mut self) -> Result<Option<u32>, ParseError> {
        if *self.peek() != TokenKind::LBracket {
            return Ok(None);
        }
        self.bump();
        let len = match self.peek().clone() {
            TokenKind::Int(v) if v > 0 => {
                self.bump();
                u32::try_from(v).map_err(|_| self.error("array length too large"))?
            }
            other => {
                return Err(self.error(format!(
                    "expected a positive array length, found {}",
                    other.describe()
                )))
            }
        };
        self.expect(&TokenKind::RBracket)?;
        Ok(Some(len))
    }

    /// Consumes a bracketed index (`[expr]`), validating but discarding it:
    /// arrays are analyzed monolithically, so the index value is
    /// irrelevant; only simple indices are allowed so no side effects are
    /// lost.
    fn discard_index(&mut self) -> Result<(), ParseError> {
        self.expect(&TokenKind::LBracket)?;
        match self.peek().clone() {
            TokenKind::Int(_) => {
                self.bump();
            }
            TokenKind::Ident(_) => {
                self.bump();
            }
            other => {
                return Err(self.error(format!(
                    "array index must be an integer or variable                      (monolithic arrays), found {}",
                    other.describe()
                )))
            }
        }
        self.expect(&TokenKind::RBracket)?;
        Ok(())
    }

    fn struct_decl(&mut self, span: Span) -> Result<StructDecl, ParseError> {
        self.expect(&TokenKind::KwStruct)?;
        let (name, _) = self.expect_ident()?;
        self.expect(&TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while *self.peek() != TokenKind::RBrace {
            if *self.peek() == TokenKind::Eof {
                return Err(self.error("unexpected end of input inside struct"));
            }
            let fty = self.ty()?;
            let (fname, _) = self.expect_ident()?;
            self.expect(&TokenKind::Semi)?;
            fields.push((fname, fty));
        }
        self.expect(&TokenKind::RBrace)?;
        self.expect(&TokenKind::Semi)?;
        Ok(StructDecl { name, fields, span })
    }

    fn function(&mut self, ret: Ty, name: Symbol, span: Span) -> Result<Function, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if *self.peek() != TokenKind::RParen {
            loop {
                let pspan = self.span();
                let pty = self.ty()?;
                let (pname, _) = self.expect_ident()?;
                params.push(Param {
                    name: pname,
                    ty: pty,
                    span: pspan,
                });
                if *self.peek() == TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        let body = self.block()?;
        Ok(Function {
            name,
            ret,
            params,
            body,
            span,
        })
    }

    fn block(&mut self) -> Result<Block, ParseError> {
        self.expect(&TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while *self.peek() != TokenKind::RBrace {
            if *self.peek() == TokenKind::Eof {
                return Err(self.error("unexpected end of input inside block"));
            }
            stmts.push(self.stmt()?);
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(Block { stmts })
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::stmt_at)
    }

    /// Dispatches on the statement's first token. Each kind is parsed in
    /// its own function, so the frames on the recursive path (`block`,
    /// `if`, `while`) stay small even without optimization.
    fn stmt_at(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            TokenKind::KwInt | TokenKind::KwVoid | TokenKind::KwStruct => self.decl_stmt(),
            TokenKind::Star => self.deref_assign_stmt(),
            TokenKind::Ident(_) if *self.peek_at(1) == TokenKind::LParen => self.expr_stmt(),
            TokenKind::Ident(_) => self.assign_stmt(),
            TokenKind::LParen => self.expr_stmt(),
            TokenKind::KwReturn => self.return_stmt(),
            TokenKind::KwIf => self.if_stmt(),
            TokenKind::KwWhile => self.while_stmt(),
            TokenKind::LBrace => Ok(Stmt::Block(self.block()?)),
            _ => Err(self.expected("a statement")),
        }
    }

    fn decl_stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        let ty = self.ty()?;
        let (name, _) = self.expect_ident()?;
        let array = self.array_suffix()?;
        let init = if *self.peek() == TokenKind::Eq {
            self.bump();
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(&TokenKind::Semi)?;
        Ok(Stmt::Decl(Decl {
            name,
            ty,
            array,
            init,
            span,
        }))
    }

    fn deref_assign_stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        let mut derefs: u8 = 0;
        while *self.peek() == TokenKind::Star {
            self.bump();
            derefs = derefs
                .checked_add(1)
                .ok_or_else(|| self.error("dereference depth exceeds 255"))?;
        }
        let (name, _) = self.expect_ident()?;
        self.expect(&TokenKind::Eq)?;
        let rhs = self.expr()?;
        self.expect(&TokenKind::Semi)?;
        Ok(Stmt::Assign {
            lhs: Place {
                derefs,
                name,
                field: None,
                span,
            },
            rhs,
            span,
        })
    }

    fn assign_stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        let (name, _) = self.expect_ident()?;
        // `a[i] = e` is `*a = e` under monolithic arrays.
        let derefs = if *self.peek() == TokenKind::LBracket {
            self.discard_index()?;
            1
        } else {
            0
        };
        let field = if derefs == 0 { self.field_sel()? } else { None };
        self.expect(&TokenKind::Eq)?;
        let rhs = self.expr()?;
        self.expect(&TokenKind::Semi)?;
        Ok(Stmt::Assign {
            lhs: Place {
                derefs,
                name,
                field,
                span,
            },
            rhs,
            span,
        })
    }

    fn expr_stmt(&mut self) -> Result<Stmt, ParseError> {
        let expr = self.expr()?;
        self.expect(&TokenKind::Semi)?;
        Ok(Stmt::Expr(expr))
    }

    fn return_stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        self.bump();
        let value = if *self.peek() == TokenKind::Semi {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(&TokenKind::Semi)?;
        Ok(Stmt::Return { value, span })
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        self.bump();
        self.expect(&TokenKind::LParen)?;
        let cond = self.cond()?;
        self.expect(&TokenKind::RParen)?;
        let then_branch = Box::new(self.stmt()?);
        let else_branch = if *self.peek() == TokenKind::KwElse {
            self.bump();
            Some(Box::new(self.stmt()?))
        } else {
            None
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
            span,
        })
    }

    fn while_stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        self.bump();
        self.expect(&TokenKind::LParen)?;
        let cond = self.cond()?;
        self.expect(&TokenKind::RParen)?;
        let body = Box::new(self.stmt()?);
        Ok(Stmt::While { cond, body, span })
    }

    /// Parses an optional `.field` / `->field` suffix.
    fn field_sel(&mut self) -> Result<Option<FieldSel>, ParseError> {
        let arrow = match self.peek() {
            TokenKind::Dot => false,
            TokenKind::Arrow => true,
            _ => return Ok(None),
        };
        self.bump();
        let (name, _) = self.expect_ident()?;
        Ok(Some(FieldSel { arrow, name }))
    }

    fn cond(&mut self) -> Result<Cond, ParseError> {
        let lhs = self.expr()?;
        let rest = match self.peek() {
            TokenKind::EqEq => {
                self.bump();
                Some((CmpOp::Eq, self.expr()?))
            }
            TokenKind::NotEq => {
                self.bump();
                Some((CmpOp::Ne, self.expr()?))
            }
            _ => None,
        };
        Ok(Cond { lhs, rest })
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::expr_at)
    }

    fn expr_at(&mut self) -> Result<Expr, ParseError> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::Amp => {
                self.bump();
                let (name, _) = self.expect_ident()?;
                if *self.peek() == TokenKind::LBracket {
                    // `&a[i]` is the (monolithic) array's address — which
                    // is what `a` itself decays to.
                    self.discard_index()?;
                    return Ok(Expr::Path {
                        derefs: 0,
                        name,
                        field: None,
                        span,
                    });
                }
                let field = self.field_sel()?;
                Ok(Expr::AddrOf { name, field, span })
            }
            TokenKind::Star => {
                let mut derefs: u8 = 0;
                while *self.peek() == TokenKind::Star {
                    self.bump();
                    derefs = derefs
                        .checked_add(1)
                        .ok_or_else(|| self.error("dereference depth exceeds 255"))?;
                }
                let (name, _) = self.expect_ident()?;
                Ok(Expr::Path {
                    derefs,
                    name,
                    field: None,
                    span,
                })
            }
            TokenKind::Ident(_) => {
                let (name, _) = self.expect_ident()?;
                if *self.peek() == TokenKind::LParen {
                    let args = self.args()?;
                    Ok(Expr::Call(Call {
                        callee: Callee::Named(name),
                        args,
                        span,
                    }))
                } else if *self.peek() == TokenKind::LBracket {
                    // `a[i]` reads the monolithic array: `*a`.
                    self.discard_index()?;
                    Ok(Expr::Path {
                        derefs: 1,
                        name,
                        field: None,
                        span,
                    })
                } else {
                    let field = self.field_sel()?;
                    Ok(Expr::Path {
                        derefs: 0,
                        name,
                        field,
                        span,
                    })
                }
            }
            TokenKind::LParen => {
                // `(*fp)(args)` — indirect call through an explicit deref.
                self.bump();
                let mut derefs: u8 = 0;
                while *self.peek() == TokenKind::Star {
                    self.bump();
                    derefs = derefs
                        .checked_add(1)
                        .ok_or_else(|| self.error("dereference depth exceeds 255"))?;
                }
                if derefs == 0 {
                    return Err(self.error(
                        "parenthesized expressions are only used for indirect calls: expected `*`",
                    ));
                }
                let (name, _) = self.expect_ident()?;
                self.expect(&TokenKind::RParen)?;
                let args = self.args()?;
                Ok(Expr::Call(Call {
                    callee: Callee::Deref { derefs, name },
                    args,
                    span,
                }))
            }
            TokenKind::KwMalloc => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                // Accept an optional size argument for C flavour: malloc(8).
                if let TokenKind::Int(_) = self.peek() {
                    self.bump();
                }
                self.expect(&TokenKind::RParen)?;
                Ok(Expr::Malloc { span })
            }
            TokenKind::KwNull => {
                self.bump();
                Ok(Expr::Null { span })
            }
            TokenKind::Int(value) => {
                self.bump();
                Ok(Expr::Int { value, span })
            }
            _ => Err(self.expected("an expression")),
        }
    }

    fn args(&mut self) -> Result<Vec<Expr>, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        if *self.peek() != TokenKind::RParen {
            loop {
                args.push(self.expr()?);
                if *self.peek() == TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_globals_and_functions() {
        let p = parse("int g; int *h = &g; void main() { }").expect("parses");
        assert_eq!(p.globals().count(), 2);
        assert_eq!(p.functions().count(), 1);
        let h = p.globals().nth(1).expect("h exists");
        assert!(matches!(h.init, Some(Expr::AddrOf { .. })));
    }

    #[test]
    fn parses_pointer_statements() {
        let src = r#"
            void main() {
                int x;
                int *p = &x;
                int **pp = &p;
                *p = 3;
                **pp = 4;
                p = *pp;
            }
        "#;
        let p = parse(src).expect("parses");
        let main = p.function("main").expect("main exists");
        assert_eq!(main.body.stmts.len(), 6);
        match &main.body.stmts[4] {
            Stmt::Assign { lhs, .. } => assert_eq!(lhs.derefs, 2),
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn parses_calls_direct_and_indirect() {
        let src = r#"
            int *id(int *p) { return p; }
            void main() {
                void *fp;
                fp = id;
                int *r = id(null);
                r = (*fp)(r);
                id(r);
            }
        "#;
        let p = parse(src).expect("parses");
        let main = p.function("main").expect("main exists");
        // fp = id is a plain assignment from a Path naming a function.
        match &main.body.stmts[1] {
            Stmt::Assign {
                rhs: Expr::Path { derefs: 0, .. },
                ..
            } => {}
            other => panic!("expected fp = id, got {other:?}"),
        }
        match &main.body.stmts[3] {
            Stmt::Assign {
                rhs: Expr::Call(call),
                ..
            } => {
                assert!(matches!(call.callee, Callee::Deref { derefs: 1, .. }));
            }
            other => panic!("expected indirect call, got {other:?}"),
        }
        assert!(matches!(main.body.stmts[4], Stmt::Expr(Expr::Call(_))));
    }

    #[test]
    fn parses_control_flow() {
        let src = r#"
            void main() {
                int *p;
                if (p == null) { p = malloc(); } else p = malloc(8);
                while (p != null) { p = null; }
            }
        "#;
        let p = parse(src).expect("parses");
        let main = p.function("main").expect("main exists");
        assert!(matches!(main.body.stmts[1], Stmt::If { .. }));
        assert!(matches!(main.body.stmts[2], Stmt::While { .. }));
    }

    #[test]
    fn rejects_missing_semicolon() {
        let err = parse("int g").expect_err("rejects");
        assert!(err.message.contains("`;`"), "message: {}", err.message);
    }

    #[test]
    fn rejects_bare_parenthesized_expr() {
        let err = parse("void main() { int x = (y); }").expect_err("rejects");
        assert!(
            err.message.contains("indirect calls"),
            "message: {}",
            err.message
        );
    }

    #[test]
    fn rejects_statement_starting_with_int_literal() {
        assert!(parse("void main() { 42 = x; }").is_err());
    }

    #[test]
    fn parses_multi_arg_call() {
        let src = "void f(int *a, int *b, int *c) { } void main() { f(null, null, null); }";
        let p = parse(src).expect("parses");
        let f = p.function("f").expect("f exists");
        assert_eq!(f.params.len(), 3);
    }

    #[test]
    fn empty_program_parses() {
        let p = parse("  /* nothing */ ").expect("parses");
        assert!(p.items.is_empty());
    }

    #[test]
    fn error_spans_point_at_token() {
        let err = parse("void main() {\n  $;\n}").expect_err("rejects");
        assert_eq!(err.span.line, 2);
    }
}

#[cfg(test)]
mod struct_tests {
    use super::*;

    #[test]
    fn parses_struct_declaration_and_use() {
        let src = r#"
            struct Node { struct Node *next; int *data; };
            void main() {
                struct Node *p = malloc();
                p->next = null;
                int *d = p->data;
                struct Node **pp = &p;
            }
        "#;
        let p = parse(src).expect("parses");
        let decl = p.structs().next().expect("struct declared");
        assert_eq!(decl.fields.len(), 2);
        let main = p.function("main").expect("main exists");
        match &main.body.stmts[1] {
            Stmt::Assign { lhs, .. } => {
                let sel = lhs.field.expect("field place");
                assert!(sel.arrow);
            }
            other => panic!("expected field assign, got {other:?}"),
        }
    }

    #[test]
    fn parses_dot_access_and_field_address() {
        let src = r#"
            struct Pair { int *a; int *b; };
            int g;
            void main() {
                struct Pair pr;
                pr.a = &g;
                int *x = pr.a;
                int **pa = &pr.b;
            }
        "#;
        let p = parse(src).expect("parses");
        let main = p.function("main").expect("main exists");
        match &main.body.stmts[3] {
            Stmt::Decl(d) => match &d.init {
                Some(Expr::AddrOf {
                    field: Some(sel), ..
                }) => assert!(!sel.arrow),
                other => panic!("expected &pr.b, got {other:?}"),
            },
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn struct_global_vs_struct_decl_disambiguation() {
        let p = parse("struct S { int *f; }; struct S g; void main() { }").expect("parses");
        assert_eq!(p.structs().count(), 1);
        assert_eq!(p.globals().count(), 1);
    }

    #[test]
    fn struct_typed_function_and_params_parse() {
        let p = parse(
            "struct S { int *f; }; struct S *mk() { return malloc(); } \
             void use(struct S *p) { }",
        )
        .expect("parses");
        assert_eq!(p.functions().count(), 2);
    }

    #[test]
    fn rejects_bare_arrow() {
        assert!(parse("void main() { int x = - 3; }").is_err());
    }

    #[test]
    fn rejects_unterminated_struct() {
        assert!(parse("struct S { int *f;").is_err());
    }
}

#[cfg(test)]
mod array_tests {
    use super::*;

    #[test]
    fn parses_array_declarations_and_indexing() {
        let src = "int *tab[4]; void main() { int *loc[2]; loc[0] = tab[1]; }";
        let p = parse(src).expect("parses");
        let g = p.globals().next().expect("global");
        assert_eq!(g.array, Some(4));
        let main = p.function("main").expect("main");
        match &main.body.stmts[0] {
            Stmt::Decl(d) => assert_eq!(d.array, Some(2)),
            other => panic!("expected array decl, got {other:?}"),
        }
        // loc[0] = tab[1] desugars to *loc = *tab.
        match &main.body.stmts[1] {
            Stmt::Assign { lhs, rhs, .. } => {
                assert_eq!(lhs.derefs, 1);
                assert!(matches!(rhs, Expr::Path { derefs: 1, .. }));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn element_address_desugars_to_decay() {
        let p = parse("int *tab[2]; void main() { int **q = &tab[0]; }").expect("parses");
        let main = p.function("main").expect("main");
        match &main.body.stmts[0] {
            Stmt::Decl(d) => {
                assert!(matches!(d.init, Some(Expr::Path { derefs: 0, .. })));
            }
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_array_syntax() {
        assert!(parse("int *tab[];").is_err());
        assert!(parse("int *tab[0];").is_err());
        assert!(parse("void main() { int *t[2]; t[f()] = null; }").is_err());
        assert!(
            parse("int *tab[4] = null;").is_ok(),
            "init rejected by checker, not parser"
        );
    }

    #[test]
    fn deep_block_nesting_is_an_error_not_a_stack_overflow() {
        let depth = 100_000;
        let src = format!(
            "void main() {{{}{} }}",
            "{".repeat(depth),
            "}".repeat(depth)
        );
        let parsed = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || parse(&src).map(|_| ()))
            .expect("spawns")
            .join()
            .expect("no stack overflow");
        let err = parsed.expect_err("too deep");
        assert_eq!(err.message, format!("nesting deeper than {MAX_DEPTH}"));
        // The error points at the first brace past the cap.
        assert_eq!(err.span.col as usize, "void main() {".len() + MAX_DEPTH + 1);
    }

    #[test]
    fn deep_call_argument_nesting_is_an_error() {
        let depth = MAX_DEPTH;
        let src = format!(
            "void *f(void *a) {{ return a; }} void main() {{ f({}null{}); }}",
            "f(".repeat(depth),
            ")".repeat(depth)
        );
        let err = parse(&src).expect_err("too deep");
        assert_eq!(err.message, format!("nesting deeper than {MAX_DEPTH}"));
    }
}
