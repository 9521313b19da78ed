//! Offline shim for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]`
//! without `syn`/`quote`: the input `TokenStream` is walked directly
//! and the generated impls are assembled as source strings. Supported
//! shapes — everything this workspace derives on:
//!
//! - structs with named fields (`#[serde(default)]` per field);
//! - tuple structs (single-field ones serialise as their inner value,
//!   which also covers `#[serde(transparent)]` newtypes);
//! - enums with unit variants (serialised as the variant-name string)
//!   and single-payload variants (externally tagged:
//!   `{"Variant": value}`);
//! - the `#[serde(try_from = "T", into = "T")]` container attributes
//!   (`try_from`'s error becomes the deserialization error through its
//!   `Display`).
//!
//! Generics are intentionally unsupported and rejected with a clear
//! panic, as no derived type in the workspace is generic.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives the shim `serde::Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    generate_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

/// Derives the shim `serde::Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    generate_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

struct Field {
    name: String,
    has_default: bool,
}

struct Variant {
    name: String,
    has_payload: bool,
}

enum Kind {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    kind: Kind,
    transparent: bool,
    try_from_ty: Option<String>,
    into_ty: Option<String>,
}

/// Container-level `#[serde(...)]` switches found while skipping
/// attributes.
#[derive(Default)]
struct SerdeAttrs {
    default: bool,
    transparent: bool,
    try_from_ty: Option<String>,
    into_ty: Option<String>,
}

fn is_punct(tt: &TokenTree, c: char) -> bool {
    matches!(tt, TokenTree::Punct(p) if p.as_char() == c)
}

fn is_ident(tt: &TokenTree, s: &str) -> bool {
    matches!(tt, TokenTree::Ident(i) if i.to_string() == s)
}

/// Consumes leading attributes starting at `i`, returning any serde
/// switches they carried and the index of the first non-attribute token.
fn skip_attrs(tokens: &[TokenTree], mut i: usize) -> (SerdeAttrs, usize) {
    let mut attrs = SerdeAttrs::default();
    while i < tokens.len() && is_punct(&tokens[i], '#') {
        let TokenTree::Group(g) = &tokens[i + 1] else {
            panic!("expected [..] after # in attribute");
        };
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        if !inner.is_empty() && is_ident(&inner[0], "serde") {
            if let Some(TokenTree::Group(args)) = inner.get(1) {
                parse_serde_args(args.stream(), &mut attrs);
            }
        }
        i += 2;
    }
    (attrs, i)
}

fn parse_serde_args(stream: TokenStream, attrs: &mut SerdeAttrs) {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    while i < toks.len() {
        match &toks[i] {
            TokenTree::Ident(id) => {
                let name = id.to_string();
                // `name = "literal"` or a bare switch
                if i + 2 < toks.len() && is_punct(&toks[i + 1], '=') {
                    let lit = toks[i + 2].to_string();
                    let ty = lit.trim_matches('"').to_string();
                    match name.as_str() {
                        "try_from" => attrs.try_from_ty = Some(ty),
                        "into" => attrs.into_ty = Some(ty),
                        other => panic!("unsupported serde attribute `{other} = ...`"),
                    }
                    i += 3;
                } else {
                    match name.as_str() {
                        "default" => attrs.default = true,
                        "transparent" => attrs.transparent = true,
                        other => panic!("unsupported serde attribute `{other}`"),
                    }
                    i += 1;
                }
            }
            t if is_punct(t, ',') => i += 1,
            other => panic!("unexpected token in serde attribute: {other}"),
        }
    }
}

/// Advances past one type, honouring `<...>` nesting, stopping at a
/// top-level comma (or end of tokens). Returns the index of that comma
/// or `tokens.len()`.
fn skip_type(tokens: &[TokenTree], mut i: usize) -> usize {
    let mut angle = 0usize;
    while i < tokens.len() {
        match &tokens[i] {
            t if is_punct(t, '<') => angle += 1,
            t if is_punct(t, '>') => angle = angle.saturating_sub(1),
            t if is_punct(t, ',') && angle == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let (container_attrs, mut i) = skip_attrs(&tokens, 0);

    // visibility
    if i < tokens.len() && is_ident(&tokens[i], "pub") {
        i += 1;
        if matches!(&tokens[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis) {
            i += 1;
        }
    }

    let is_enum = if is_ident(&tokens[i], "struct") {
        false
    } else if is_ident(&tokens[i], "enum") {
        true
    } else {
        panic!("derive input is neither struct nor enum at {}", tokens[i]);
    };
    i += 1;

    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected type name, found {other}"),
    };
    i += 1;

    if i < tokens.len() && is_punct(&tokens[i], '<') {
        panic!("shim serde_derive does not support generic types ({name})");
    }

    let kind = if is_enum {
        let TokenTree::Group(body) = &tokens[i] else {
            panic!("expected enum body for {name}");
        };
        Kind::Enum(parse_variants(body.stream()))
    } else {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Kind::Tuple(count_tuple_fields(g.stream()))
            }
            Some(t) if is_punct(t, ';') => Kind::Unit,
            other => panic!("unexpected struct body for {name}: {other:?}"),
        }
    };

    Item {
        name,
        kind,
        transparent: container_attrs.transparent,
        try_from_ty: container_attrs.try_from_ty,
        into_ty: container_attrs.into_ty,
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let (attrs, next) = skip_attrs(&tokens, i);
        i = next;
        if i >= tokens.len() {
            break;
        }
        if is_ident(&tokens[i], "pub") {
            i += 1;
            if matches!(&tokens[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis)
            {
                i += 1;
            }
        }
        let fname = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("expected field name, found {other}"),
        };
        i += 1;
        assert!(
            is_punct(&tokens[i], ':'),
            "expected `:` after field {fname}"
        );
        i = skip_type(&tokens, i + 1);
        i += 1; // past the comma (or off the end)
        fields.push(Field {
            name: fname,
            has_default: attrs.default,
        });
    }
    fields
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 0;
    let mut i = 0;
    while i < tokens.len() {
        // each element may start with attributes or a visibility marker
        let (_, next) = skip_attrs(&tokens, i);
        i = next;
        if i < tokens.len() && is_ident(&tokens[i], "pub") {
            i += 1;
            if matches!(&tokens[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis)
            {
                i += 1;
            }
        }
        i = skip_type(&tokens, i);
        i += 1;
        count += 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let (_, next) = skip_attrs(&tokens, i);
        i = next;
        if i >= tokens.len() {
            break;
        }
        let vname = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("expected variant name, found {other}"),
        };
        i += 1;
        let mut has_payload = false;
        if i < tokens.len() {
            if let TokenTree::Group(g) = &tokens[i] {
                match g.delimiter() {
                    Delimiter::Parenthesis => {
                        let n = count_tuple_fields(g.stream());
                        assert!(
                            n == 1,
                            "shim serde_derive supports exactly one payload field, variant {vname} has {n}"
                        );
                        has_payload = true;
                        i += 1;
                    }
                    Delimiter::Brace => {
                        panic!("shim serde_derive does not support struct variants ({vname})")
                    }
                    _ => {}
                }
            }
        }
        // skip to the comma separating variants (covers `= discr`)
        while i < tokens.len() && !is_punct(&tokens[i], ',') {
            i += 1;
        }
        i += 1;
        variants.push(Variant {
            name: vname,
            has_payload,
        });
    }
    variants
}

// ---- code generation -------------------------------------------------

fn generate_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = if let Some(into_ty) = &item.into_ty {
        format!(
            "let repr: {into_ty} = ::core::convert::Into::into(::core::clone::Clone::clone(self));\n\
             ::serde::Serialize::to_value(&repr)"
        )
    } else {
        match &item.kind {
            Kind::Named(fields) => {
                if item.transparent {
                    assert!(fields.len() == 1, "transparent needs exactly one field");
                    format!("::serde::Serialize::to_value(&self.{})", fields[0].name)
                } else {
                    let entries: Vec<String> = fields
                        .iter()
                        .map(|f| {
                            format!(
                                "(\"{n}\".to_string(), ::serde::Serialize::to_value(&self.{n}))",
                                n = f.name
                            )
                        })
                        .collect();
                    format!("::serde::Value::Object(vec![{}])", entries.join(", "))
                }
            }
            Kind::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
            Kind::Tuple(n) => {
                let entries: Vec<String> = (0..*n)
                    .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                    .collect();
                format!("::serde::Value::Array(vec![{}])", entries.join(", "))
            }
            Kind::Unit => format!("::serde::Value::Str(\"{name}\".to_string())"),
            Kind::Enum(variants) => {
                let arms: Vec<String> = variants
                    .iter()
                    .map(|v| {
                        if v.has_payload {
                            format!(
                                "{name}::{v}(inner) => ::serde::Value::Object(vec![(\"{v}\".to_string(), ::serde::Serialize::to_value(inner))]),",
                                v = v.name
                            )
                        } else {
                            format!(
                                "{name}::{v} => ::serde::Value::Str(\"{v}\".to_string()),",
                                v = v.name
                            )
                        }
                    })
                    .collect();
                format!("match self {{\n{}\n}}", arms.join("\n"))
            }
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n\
         }}"
    )
}

fn generate_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = if let Some(try_from_ty) = &item.try_from_ty {
        format!(
            "let repr: {try_from_ty} = ::serde::Deserialize::from_value(v)?;\n\
             ::core::convert::TryFrom::try_from(repr).map_err(::serde::Error::custom)"
        )
    } else {
        match &item.kind {
            Kind::Named(fields) => {
                if item.transparent {
                    assert!(fields.len() == 1, "transparent needs exactly one field");
                    format!(
                        "Ok({name} {{ {f}: ::serde::Deserialize::from_value(v)? }})",
                        f = fields[0].name
                    )
                } else {
                    let inits: Vec<String> = fields
                        .iter()
                        .map(|f| {
                            let fallback = if f.has_default {
                                "::core::default::Default::default()".to_string()
                            } else {
                                format!("return Err(::serde::Error::missing_field(\"{}\"))", f.name)
                            };
                            format!(
                                "{n}: match ::serde::find_field(fields, \"{n}\") {{\n\
                                     Some(x) => ::serde::Deserialize::from_value(x)?,\n\
                                     None => {fallback},\n\
                                 }},",
                                n = f.name
                            )
                        })
                        .collect();
                    format!(
                        "let fields = v.as_object().ok_or_else(|| ::serde::Error::invalid_type(\"object\", v))?;\n\
                         Ok({name} {{\n{}\n}})",
                        inits.join("\n")
                    )
                }
            }
            Kind::Tuple(1) => format!("Ok({name}(::serde::Deserialize::from_value(v)?))"),
            Kind::Tuple(n) => {
                let inits: Vec<String> = (0..*n)
                    .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?"))
                    .collect();
                format!(
                    "let items = v.as_array().ok_or_else(|| ::serde::Error::invalid_type(\"array\", v))?;\n\
                     if items.len() != {n} {{\n\
                         return Err(::serde::Error::custom(\"wrong tuple length\"));\n\
                     }}\n\
                     Ok({name}({}))",
                    inits.join(", ")
                )
            }
            Kind::Unit => format!(
                "match v {{\n\
                     ::serde::Value::Str(s) if s == \"{name}\" => Ok({name}),\n\
                     other => Err(::serde::Error::invalid_type(\"unit struct string\", other)),\n\
                 }}"
            ),
            Kind::Enum(variants) => {
                let expected: Vec<String> =
                    variants.iter().map(|v| format!("\"{}\"", v.name)).collect();
                let unit_arms: Vec<String> = variants
                    .iter()
                    .filter(|v| !v.has_payload)
                    .map(|v| format!("\"{v}\" => Ok({name}::{v}),", v = v.name))
                    .collect();
                let payload_arms: Vec<String> = variants
                    .iter()
                    .filter(|v| v.has_payload)
                    .map(|v| {
                        format!(
                            "\"{v}\" => Ok({name}::{v}(::serde::Deserialize::from_value(payload)?)),",
                            v = v.name
                        )
                    })
                    .collect();
                format!(
                    "const EXPECTED: &[&str] = &[{expected}];\n\
                     match v {{\n\
                         ::serde::Value::Str(s) => match s.as_str() {{\n\
                             {unit_arms}\n\
                             other => Err(::serde::Error::unknown_variant(other, EXPECTED)),\n\
                         }},\n\
                         ::serde::Value::Object(fields) if fields.len() == 1 => {{\n\
                             let (tag, payload) = &fields[0];\n\
                             match tag.as_str() {{\n\
                                 {payload_arms}\n\
                                 other => Err(::serde::Error::unknown_variant(other, EXPECTED)),\n\
                             }}\n\
                         }}\n\
                         other => Err(::serde::Error::invalid_type(\"enum variant\", other)),\n\
                     }}",
                    expected = expected.join(", "),
                    unit_arms = unit_arms.join("\n"),
                    payload_arms = payload_arms.join("\n"),
                )
            }
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n\
         }}"
    )
}
