//! Minimal `#[derive(Serialize)]` for the vendored serde shim.
//!
//! Hand-rolled token parsing (no `syn`/`quote` available offline). Supports
//! non-generic structs with named fields and enums with unit variants, plus
//! two of real serde's field attributes, with real serde's meaning:
//!
//! - `#[serde(skip_serializing_if = "path")]` omits the field when
//!   `path(&self.field)` returns `true` (`Option::is_none`,
//!   `Vec::is_empty`, ...);
//! - `#[serde(flatten)]` splices the fields of the field's object into the
//!   enclosing object, in place; a field that serializes to `null` (a
//!   `None`) contributes nothing.
//!
//! Any other `#[serde(...)]` attribute, and any on the container or on an
//! enum variant, fails to compile rather than being silently ignored.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (kind, name, body) = parse_item(input);
    let code = match kind.as_str() {
        "struct" => derive_struct(&name, body),
        "enum" => derive_enum(&name, body),
        _ => panic!("derive(Serialize): unsupported item kind {kind}"),
    };
    code.parse()
        .expect("derive(Serialize): generated code parses")
}

/// The `serde` attributes written on one field.
#[derive(Default)]
struct Attrs {
    skip_if: Option<String>,
    flatten: bool,
}

/// Read one attribute (the `[...]` after `#`) into `attrs`, returning
/// whether it was a `serde` one. Panics on items the shim does not support.
fn read_attr(attr: Option<TokenTree>, attrs: &mut Attrs) -> bool {
    let Some(TokenTree::Group(attr)) = attr else {
        return false;
    };
    let mut iter = attr.stream().into_iter();
    match iter.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return false,
    }
    let Some(TokenTree::Group(args)) = iter.next() else {
        panic!("derive(Serialize): expected `#[serde(...)]`");
    };
    let args: Vec<TokenTree> = args.stream().into_iter().collect();
    for item in args.split(|tt| matches!(tt, TokenTree::Punct(p) if p.as_char() == ',')) {
        match item {
            [] => {}
            [TokenTree::Ident(id)] if id.to_string() == "flatten" => attrs.flatten = true,
            [TokenTree::Ident(id), TokenTree::Punct(eq), TokenTree::Literal(lit)]
                if id.to_string() == "skip_serializing_if" && eq.as_char() == '=' =>
            {
                let lit = lit.to_string();
                let path = lit.strip_prefix('"').and_then(|s| s.strip_suffix('"'));
                let path =
                    path.unwrap_or_else(|| panic!("derive(Serialize): {lit} is not a string"));
                attrs.skip_if = Some(path.to_string());
            }
            _ => {
                let text: TokenStream = item.iter().cloned().collect();
                panic!("derive(Serialize): unsupported attribute `#[serde({text})]`")
            }
        }
    }
    true
}

/// Skip an attribute where `serde` ones are unsupported (types, variants).
fn reject_serde_attr(attr: Option<TokenTree>, on: &str) {
    if read_attr(attr, &mut Attrs::default()) {
        panic!("derive(Serialize): `#[serde(...)]` on {on} is unsupported");
    }
}

/// Find `struct`/`enum`, the type name, and the `{ ... }` body, skipping
/// attributes and visibility.
fn parse_item(input: TokenStream) -> (String, String, TokenStream) {
    let mut iter = input.into_iter();
    while let Some(tt) = iter.next() {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '#' => reject_serde_attr(iter.next(), "a type"),
            TokenTree::Ident(id) => {
                let kw = id.to_string();
                if kw == "struct" || kw == "enum" {
                    let name = match iter.next() {
                        Some(TokenTree::Ident(n)) => n.to_string(),
                        other => panic!("derive(Serialize): expected type name, got {other:?}"),
                    };
                    for tt2 in iter.by_ref() {
                        match tt2 {
                            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                                return (kw, name, g.stream());
                            }
                            TokenTree::Punct(p) if p.as_char() == ';' => {
                                panic!("derive(Serialize): tuple/unit structs unsupported");
                            }
                            TokenTree::Punct(p) if p.as_char() == '<' => {
                                panic!("derive(Serialize): generics unsupported");
                            }
                            _ => {}
                        }
                    }
                    panic!("derive(Serialize): missing body for {name}");
                }
                // `pub`, `pub(crate)` etc. fall through.
            }
            _ => {}
        }
    }
    panic!("derive(Serialize): no struct or enum found");
}

/// Extract named fields and their `serde` attributes from a struct body,
/// skipping other attributes, visibility, and type tokens (tracking
/// `<`/`>` depth so commas inside generic arguments don't split fields).
fn struct_fields(body: TokenStream) -> Vec<(String, Attrs)> {
    let mut fields = Vec::new();
    let mut attrs = Attrs::default();
    let mut iter = body.into_iter().peekable();
    'outer: while let Some(tt) = iter.next() {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                read_attr(iter.next(), &mut attrs);
            }
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                // Skip a following `(crate)`-style restriction, if any.
                if let Some(TokenTree::Group(g)) = iter.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        let _ = iter.next();
                    }
                }
            }
            TokenTree::Ident(id) => {
                fields.push((id.to_string(), std::mem::take(&mut attrs)));
                // Consume `: Type` up to the next top-level comma.
                let mut angle = 0i32;
                for tt2 in iter.by_ref() {
                    if let TokenTree::Punct(p) = tt2 {
                        match p.as_char() {
                            '<' => angle += 1,
                            '>' => angle -= 1,
                            ',' if angle == 0 => continue 'outer,
                            _ => {}
                        }
                    }
                }
                break;
            }
            _ => {}
        }
    }
    fields
}

fn derive_struct(name: &str, body: TokenStream) -> String {
    let stmts: Vec<String> = struct_fields(body)
        .iter()
        .map(|(f, attrs)| {
            let value = format!("serde::Serialize::to_value(&self.{f})");
            let push = if attrs.flatten {
                format!(
                    "match {value} {{\n\
                     \t\t\tserde::Value::Object(kv) => fields.extend(kv),\n\
                     \t\t\tserde::Value::Null => {{}}\n\
                     \t\t\tother => panic!(\"flatten: `{name}::{f}` is not an object: {{other:?}}\"),\n\
                     \t\t}}"
                )
            } else {
                format!("fields.push((::std::string::String::from(\"{f}\"), {value}));")
            };
            match &attrs.skip_if {
                Some(path) => format!("if !{path}(&self.{f}) {{ {push} }}"),
                None => push,
            }
        })
        .collect();
    format!(
        "impl serde::Serialize for {name} {{\n\
         \tfn to_value(&self) -> serde::Value {{\n\
         \t\tlet mut fields = ::std::vec::Vec::<(::std::string::String, serde::Value)>::new();\n\
         \t\t{}\n\
         \t\tserde::Value::Object(fields)\n\
         \t}}\n\
         }}",
        stmts.join("\n\t\t")
    )
}

/// Extract unit-variant names from an enum body.
fn enum_variants(body: TokenStream) -> Vec<String> {
    let mut variants = Vec::new();
    let mut iter = body.into_iter();
    let mut expect_name = true;
    while let Some(tt) = iter.next() {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                reject_serde_attr(iter.next(), "a variant")
            }
            TokenTree::Ident(id) if expect_name => {
                variants.push(id.to_string());
                expect_name = false;
            }
            TokenTree::Group(_) => {
                panic!("derive(Serialize): enum variants with payloads unsupported");
            }
            TokenTree::Punct(p) if p.as_char() == ',' => expect_name = true,
            _ => {}
        }
    }
    variants
}

fn derive_enum(name: &str, body: TokenStream) -> String {
    let variants = enum_variants(body);
    let arms: Vec<String> = variants
        .iter()
        .map(|v| format!("{name}::{v} => serde::Value::Str(::std::string::String::from(\"{v}\"))"))
        .collect();
    format!(
        "impl serde::Serialize for {name} {{\n\
         \tfn to_value(&self) -> serde::Value {{\n\
         \t\tmatch self {{ {} }}\n\
         \t}}\n\
         }}",
        arms.join(", ")
    )
}
