//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` for the one shape the MISP workspace
//! derives it on: non-generic structs with named fields, which serialize as
//! JSON objects in field declaration order.  There is no `Deserialize`
//! derive: nothing in the workspace decodes a typed value.  One
//! `#[serde(...)]` attribute is honoured: `skip_serializing_if = "path"` on
//! a field, which omits the field from the object when the predicate holds.
//! All other `#[serde(...)]` attributes are accepted and ignored.
//!
//! The input token stream is parsed by hand (no `syn`/`quote` in an offline
//! container) and the generated impl is produced as a string, then reparsed
//! by the compiler.  Unsupported shapes (enums, tuple and unit structs,
//! generic types, unions) produce a `compile_error!` naming the limitation
//! rather than silently misbehaving.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One named field together with the serde attributes this stand-in honours.
struct Field {
    name: String,
    /// Predicate path from `#[serde(skip_serializing_if = "path")]`, if any.
    skip_serializing_if: Option<String>,
}

/// A struct with named fields.
struct Input {
    name: String,
    fields: Vec<Field>,
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let code = match parse(input) {
        Ok(parsed) => gen_serialize(&parsed),
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    code.parse().expect("serde_derive generated invalid Rust")
}

// ---------------------------------------------------------------------------
// Parsing

fn parse(input: TokenStream) -> Result<Input, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;

    let _ = consume_attributes_and_visibility(&tokens, &mut pos);

    match tokens.get(pos) {
        Some(TokenTree::Ident(ident)) if ident.to_string() == "struct" => {}
        other => {
            return Err(format!(
                "serde_derive stand-in: only structs are supported, found {other:?}"
            ))
        }
    }
    pos += 1;

    let name = match tokens.get(pos) {
        Some(TokenTree::Ident(ident)) => ident.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    pos += 1;

    match tokens.get(pos) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Input {
            fields: parse_named_fields(g.stream())?,
            name,
        }),
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => Err(format!(
            "serde_derive stand-in: generic type `{name}` is not supported"
        )),
        _ => Err(format!(
            "serde_derive stand-in: `{name}` has no named fields; only such structs are supported"
        )),
    }
}

/// Skips attributes and visibility, returning the predicate path of any
/// `#[serde(skip_serializing_if = "path")]` attribute encountered.
fn consume_attributes_and_visibility(tokens: &[TokenTree], pos: &mut usize) -> Option<String> {
    let mut skip_if = None;
    loop {
        match tokens.get(*pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *pos += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(*pos) {
                    if let Some(predicate) = parse_skip_serializing_if(g.stream()) {
                        skip_if = Some(predicate);
                    }
                    *pos += 1;
                }
            }
            Some(TokenTree::Ident(ident)) if ident.to_string() == "pub" => {
                *pos += 1;
                if matches!(
                    tokens.get(*pos),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    *pos += 1;
                }
            }
            _ => return skip_if,
        }
    }
}

/// Extracts the predicate path from the body of a
/// `serde(skip_serializing_if = "path")` attribute, if this is one.
fn parse_skip_serializing_if(stream: TokenStream) -> Option<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    match tokens.first() {
        Some(TokenTree::Ident(ident)) if ident.to_string() == "serde" => {}
        _ => return None,
    }
    let inner: Vec<TokenTree> = match tokens.get(1) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            g.stream().into_iter().collect()
        }
        _ => return None,
    };
    for (index, token) in inner.iter().enumerate() {
        let TokenTree::Ident(ident) = token else {
            continue;
        };
        if ident.to_string() != "skip_serializing_if" {
            continue;
        }
        if let (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(lit))) =
            (inner.get(index + 1), inner.get(index + 2))
        {
            if eq.as_char() == '=' {
                return Some(lit.to_string().trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Parses `field: Type, ...` returning field names.  Types are skipped by
/// scanning to the next comma that is not nested inside angle brackets.
fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut fields = Vec::new();
    while pos < tokens.len() {
        let skip_serializing_if = consume_attributes_and_visibility(&tokens, &mut pos);
        if pos >= tokens.len() {
            break;
        }
        let name = match &tokens[pos] {
            TokenTree::Ident(ident) => ident.to_string(),
            other => return Err(format!("expected field name, found {other:?}")),
        };
        pos += 1;
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => pos += 1,
            other => {
                return Err(format!(
                    "expected `:` after field `{name}`, found {other:?}"
                ))
            }
        }
        skip_type(&tokens, &mut pos);
        fields.push(Field {
            name,
            skip_serializing_if,
        });
    }
    Ok(fields)
}

/// Advances past a type, stopping after the field-separating comma (or at
/// end of stream).  Tracks `<`/`>` nesting so commas inside generics don't
/// terminate the scan.
fn skip_type(tokens: &[TokenTree], pos: &mut usize) {
    let mut angle_depth = 0usize;
    while let Some(token) = tokens.get(*pos) {
        if let TokenTree::Punct(p) = token {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                ',' if angle_depth == 0 => {
                    *pos += 1;
                    return;
                }
                _ => {}
            }
        }
        *pos += 1;
    }
}

// ---------------------------------------------------------------------------
// Code generation

const HEADER: &str =
    "#[automatically_derived]\n#[allow(warnings, clippy::all, clippy::pedantic)]\n";

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = ser_named_fields(&input.fields);
    format!(
        "{HEADER}impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::value::Value {{ {body} }}\n\
         }}"
    )
}

/// Builds the object-construction expression of a named-field struct.
/// Fields carrying `skip_serializing_if` are pushed conditionally.
fn ser_named_fields(fields: &[Field]) -> String {
    let mut body = String::from(
        "{ let mut __fields: ::std::vec::Vec<(::std::string::String, \
         ::serde::value::Value)> = ::std::vec::Vec::new(); ",
    );
    for field in fields {
        let name = &field.name;
        let reference = format!("&self.{name}");
        let push = format!(
            "__fields.push(({name:?}.to_string(), ::serde::Serialize::to_value({reference})));"
        );
        match &field.skip_serializing_if {
            Some(predicate) => {
                body.push_str(&format!("if !{predicate}({reference}) {{ {push} }} "));
            }
            None => {
                body.push_str(&push);
                body.push(' ');
            }
        }
    }
    body.push_str("::serde::value::Value::Object(__fields) }");
    body
}
