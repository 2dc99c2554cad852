//! MiniC — the simplified C-like input language for the `ddpa` analyses.
//!
//! The PLDI 2001 demand-driven pointer analysis abstracts C programs into
//! primitive pointer assignments. This crate provides the *frontend* for
//! that abstraction: a small but genuine language with functions, globals,
//! pointers of arbitrary depth, address-of, dereference chains, `malloc`,
//! and both direct and function-pointer calls. Control flow (`if`/`while`)
//! is parsed and checked but — as in any flow-insensitive analysis — has no
//! effect on the extracted assignments.
//!
//! Pipeline position:
//!
//! ```text
//! MiniC source --[lexer+parser]--> ast::Program --[check]--> checked AST
//!              --[ddpa-constraints::lower]--> constraint program
//! ```
//!
//! # Grammar (informal)
//!
//! ```text
//! program  := (struct | global | function)*
//! struct   := "struct" IDENT "{" (type IDENT ";")* "}" ";"
//! global   := type IDENT ("[" INT "]")? ("=" expr)? ";"
//! function := type IDENT "(" params? ")" block
//! type     := ("int" | "void" | "struct" IDENT) "*"*
//! block    := "{" stmt* "}"
//! stmt     := type IDENT ("[" INT "]")? ("=" expr)? ";"  // declaration
//!           | "*"* IDENT "=" expr ";"             // assignment
//!           | IDENT "[" index "]" "=" expr ";"    // array element store
//!           | IDENT ("." | "->") IDENT "=" expr ";"  // field assignment
//!           | expr ";"                            // call statement
//!           | "return" expr? ";"
//!           | "if" "(" cond ")" stmt ("else" stmt)?
//!           | "while" "(" cond ")" stmt
//!           | block
//! expr     := "&" IDENT (("." | "->") IDENT)?     // address-of (a field)
//!           | "*"* IDENT                          // variable / loads
//!           | IDENT ("." | "->") IDENT            // field read
//!           | IDENT "[" index "]"                 // array element load
//!           | call | "malloc" "(" ")" | "null" | INT
//! call     := IDENT "(" args? ")"
//!           | "(" "*"* IDENT ")" "(" args? ")"    // via function pointer
//! index    := INT | IDENT                        // validated, then discarded
//! cond     := expr (("==" | "!=") expr)?
//! ```
//!
//! Arrays are **monolithic** (as in the 2001 analysis): `tab` declares one
//! storage object, the name decays to its address, and `tab[i]` reads or
//! writes the whole object regardless of `i` — which is why indices are
//! restricted to side-effect-free forms and discarded.
//!
//! Struct values are never copied, passed, or returned whole (use
//! pointers); field selections do not chain (`p->f->g` is rejected) and do
//! not mix with dereferences (`*p->f` is rejected) — introduce a
//! temporary instead, as the lowering itself would.
//!
//! # Examples
//!
//! ```
//! let source = r#"
//!     int g;
//!     int *id(int *p) { return p; }
//!     void main() {
//!         int *x = &g;
//!         int *y = id(x);
//!     }
//! "#;
//! let program = ddpa_ir::parse(source)?;
//! ddpa_ir::check(&program)?;
//! assert_eq!(program.functions().count(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod builder;
pub mod check;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod token;

pub use ast::Program;
pub use builder::ProgramBuilder;
pub use check::{check, CheckError, CheckErrors};
pub use parser::{parse, ParseError, MAX_DEPTH};
pub use pretty::pretty;
