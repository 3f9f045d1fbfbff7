//! Offline shim of `serde_derive`.
//!
//! Generates impls of the local serde shim's `Serialize` (render into a
//! `Value` tree) and `Deserialize` (pull from a `serde::Reader`, over JSON
//! text or a tree) traits, parsing the item with hand-rolled `proc_macro`
//! token walking instead of `syn`. The trick that keeps this small:
//! generated code never needs to *name* field types. A decoded struct
//! reads each member into an `Option` slot through type-inferred helpers
//! (`serde::read_member`, then `serde::member` once the object is read),
//! so the parser only records field names, arities, and whether
//! `#[serde(default)]` is present — types are skipped by bracket-depth
//! counting.
//!
//! Supported shapes (all the workspace uses): named structs, tuple structs
//! (newtypes serialize transparently), unit structs, and enums with unit /
//! tuple / struct variants (externally tagged, like real serde). Generic
//! parameters get the trait bound appended, mirroring serde's behaviour.

use proc_macro::{Delimiter, Spacing, TokenStream, TokenTree};

struct Item {
    name: String,
    /// Raw generic-parameter segments, e.g. `["M: Meta", "'a"]`.
    generics: Vec<String>,
    where_clause: String,
    body: Body,
}

enum Body {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
    Enum(Vec<Variant>),
}

struct Field {
    name: String,
    /// `#[serde(default)]` present.
    default: bool,
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

/// Derive the serde shim's `Serialize` for a struct or enum.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive: generated Serialize impl failed to parse")
}

/// Derive the serde shim's `Deserialize` for a struct or enum.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde_derive: generated Deserialize impl failed to parse")
}

// ---- Parsing ----

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs(&toks, &mut i);
    skip_vis(&toks, &mut i);
    let kw = take_ident(&toks, &mut i);
    let name = take_ident(&toks, &mut i);
    let generics = parse_generics(&toks, &mut i);

    // Optional where-clause before a braced body.
    let mut where_clause = String::new();
    if matches!(&toks.get(i), Some(TokenTree::Ident(id)) if id.to_string() == "where") {
        let start = i;
        while i < toks.len()
            && !matches!(&toks[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Brace)
        {
            i += 1;
        }
        where_clause = stringify_tokens(&toks[start..i]);
    }

    let body = if kw == "enum" {
        let TokenTree::Group(g) = &toks[i] else {
            panic!("serde_derive: enum without a brace body");
        };
        Body::Enum(parse_variants(g.stream()))
    } else {
        match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Body::Tuple(count_tuple_fields(g.stream()))
            }
            _ => Body::Unit,
        }
    };

    Item {
        name,
        generics,
        where_clause,
        body,
    }
}

/// Skip `#[...]` attributes; report whether any was `#[serde(default)]`.
fn skip_attrs_check_default(toks: &[TokenTree], i: &mut usize) -> bool {
    let mut default = false;
    while matches!(&toks.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        if let Some(TokenTree::Group(g)) = toks.get(*i + 1) {
            default |= attr_is_serde_default(g.stream());
            *i += 2;
        } else {
            *i += 1;
        }
    }
    default
}

fn skip_attrs(toks: &[TokenTree], i: &mut usize) {
    skip_attrs_check_default(toks, i);
}

fn attr_is_serde_default(attr: TokenStream) -> bool {
    let toks: Vec<TokenTree> = attr.into_iter().collect();
    match (toks.first(), toks.get(1)) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) if id.to_string() == "serde" => {
            args.stream()
                .into_iter()
                .any(|t| matches!(&t, TokenTree::Ident(a) if a.to_string() == "default"))
        }
        _ => false,
    }
}

fn skip_vis(toks: &[TokenTree], i: &mut usize) {
    if matches!(&toks.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(&toks.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

fn take_ident(toks: &[TokenTree], i: &mut usize) -> String {
    match &toks[*i] {
        TokenTree::Ident(id) => {
            *i += 1;
            id.to_string()
        }
        other => panic!("serde_derive: expected identifier, found `{other}`"),
    }
}

/// Consume `<...>` after the type name; return raw parameter segments split
/// at top-level commas.
fn parse_generics(toks: &[TokenTree], i: &mut usize) -> Vec<String> {
    if !matches!(&toks.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Vec::new();
    }
    *i += 1;
    let mut depth = 1usize;
    let mut segments = Vec::new();
    let mut current: Vec<TokenTree> = Vec::new();
    while *i < toks.len() {
        let t = &toks[*i];
        *i += 1;
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                ',' if depth == 1 => {
                    if !current.is_empty() {
                        segments.push(stringify_tokens(&current));
                        current.clear();
                    }
                    continue;
                }
                _ => {}
            }
        }
        current.push(t.clone());
    }
    if !current.is_empty() {
        segments.push(stringify_tokens(&current));
    }
    segments
}

fn parse_named_fields(body: TokenStream) -> Vec<Field> {
    let toks: Vec<TokenTree> = body.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < toks.len() {
        let default = skip_attrs_check_default(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        skip_vis(&toks, &mut i);
        let name = take_ident(&toks, &mut i);
        // ':'
        i += 1;
        skip_type(&toks, &mut i);
        fields.push(Field { name, default });
    }
    fields
}

/// Skip a type, stopping past the next top-level `,` (or at end of tokens).
/// Angle brackets nest; the `>` of `->` does not close a bracket.
fn skip_type(toks: &[TokenTree], i: &mut usize) {
    let mut depth = 0usize;
    let mut prev_dash = false;
    while *i < toks.len() {
        let t = &toks[*i];
        *i += 1;
        if let TokenTree::Punct(p) = t {
            let c = p.as_char();
            match c {
                '<' => depth += 1,
                '>' if !prev_dash => depth = depth.saturating_sub(1),
                ',' if depth == 0 => return,
                _ => {}
            }
            prev_dash = c == '-' && p.spacing() == Spacing::Joint;
        } else {
            prev_dash = false;
        }
    }
}

fn count_tuple_fields(body: TokenStream) -> usize {
    let toks: Vec<TokenTree> = body.into_iter().collect();
    let mut i = 0;
    let mut count = 0;
    while i < toks.len() {
        skip_attrs(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        skip_vis(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        skip_type(&toks, &mut i);
        count += 1;
    }
    count
}

fn parse_variants(body: TokenStream) -> Vec<Variant> {
    let toks: Vec<TokenTree> = body.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < toks.len() {
        skip_attrs(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        let name = take_ident(&toks, &mut i);
        let kind = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(count_tuple_fields(g.stream()))
            }
            _ => VariantKind::Unit,
        };
        // Skip an optional discriminant, then the separating comma.
        while i < toks.len() && !matches!(&toks[i], TokenTree::Punct(p) if p.as_char() == ',') {
            i += 1;
        }
        i += 1;
        variants.push(Variant { name, kind });
    }
    variants
}

/// Re-render tokens as source text, honouring joint punctuation so `'a`,
/// `::`, and `->` survive the round trip.
fn stringify_tokens(toks: &[TokenTree]) -> String {
    let mut out = String::new();
    for t in toks {
        out.push_str(&t.to_string());
        match t {
            TokenTree::Punct(p) if p.spacing() == Spacing::Joint => {}
            _ => out.push(' '),
        }
    }
    out.trim_end().to_string()
}

// ---- Generics plumbing ----

/// Build `impl<...>` and `Type<...>` parameter lists, appending `bound` to
/// every type parameter (serde's behaviour for derived impls).
fn generics_strings(item: &Item, bound: &str) -> (String, String) {
    if item.generics.is_empty() {
        return (String::new(), String::new());
    }
    let mut impl_params = Vec::new();
    let mut ty_params = Vec::new();
    for seg in &item.generics {
        let seg = seg.trim();
        let head = seg.split(':').next().unwrap_or(seg).trim().to_string();
        if seg.starts_with('\'') {
            impl_params.push(seg.to_string());
            ty_params.push(head);
        } else if let Some(rest) = seg.strip_prefix("const ") {
            impl_params.push(seg.to_string());
            let name = rest.split(':').next().unwrap_or(rest).trim().to_string();
            ty_params.push(name);
        } else if seg.contains(':') {
            impl_params.push(format!("{seg} + {bound}"));
            ty_params.push(head);
        } else {
            impl_params.push(format!("{seg}: {bound}"));
            ty_params.push(head);
        }
    }
    (
        format!("<{}>", impl_params.join(", ")),
        format!("<{}>", ty_params.join(", ")),
    )
}

// ---- Code generation ----

fn gen_serialize(item: &Item) -> String {
    let (impl_g, ty_g) = generics_strings(item, "::serde::Serialize");
    let name = &item.name;
    let body = match &item.body {
        Body::Named(fields) => {
            let pairs: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{0}\"), ::serde::Serialize::to_value(&self.{0}))",
                        f.name
                    )
                })
                .collect();
            format!("::serde::Value::Object(::std::vec![{}])", pairs.join(", "))
        }
        Body::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Body::Tuple(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(::std::vec![{}])", elems.join(", "))
        }
        Body::Unit => "::serde::Value::Null".to_string(),
        Body::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.kind {
                        VariantKind::Unit => format!(
                            "Self::{vn} => ::serde::Value::Str(::std::string::String::from(\"{vn}\")),"
                        ),
                        VariantKind::Tuple(1) => format!(
                            "Self::{vn}(__f0) => ::serde::Value::Object(::std::vec![(::std::string::String::from(\"{vn}\"), ::serde::Serialize::to_value(__f0))]),"
                        ),
                        VariantKind::Tuple(n) => {
                            let binds: Vec<String> =
                                (0..*n).map(|i| format!("__f{i}")).collect();
                            let elems: Vec<String> = (0..*n)
                                .map(|i| format!("::serde::Serialize::to_value(__f{i})"))
                                .collect();
                            format!(
                                "Self::{vn}({b}) => ::serde::Value::Object(::std::vec![(::std::string::String::from(\"{vn}\"), ::serde::Value::Array(::std::vec![{e}]))]),",
                                b = binds.join(", "),
                                e = elems.join(", ")
                            )
                        }
                        VariantKind::Named(fields) => {
                            let binds: Vec<String> =
                                fields.iter().map(|f| f.name.clone()).collect();
                            let pairs: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "(::std::string::String::from(\"{0}\"), ::serde::Serialize::to_value({0}))",
                                        f.name
                                    )
                                })
                                .collect();
                            format!(
                                "Self::{vn} {{ {b} }} => ::serde::Value::Object(::std::vec![(::std::string::String::from(\"{vn}\"), ::serde::Value::Object(::std::vec![{p}]))]),",
                                b = binds.join(", "),
                                p = pairs.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    let where_c = &item.where_clause;
    format!(
        "impl{impl_g} ::serde::Serialize for {name}{ty_g} {where_c} {{ \
            fn to_value(&self) -> ::serde::Value {{ {body} }} \
        }}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let (impl_g, ty_g) = generics_strings(item, "::serde::Deserialize");
    let name = &item.name;
    let body = match &item.body {
        Body::Named(fields) => read_named(fields, "Self"),
        Body::Tuple(1) => {
            "::std::result::Result::Ok(Self(::serde::Deserialize::deserialize(__r)?))".to_string()
        }
        Body::Tuple(n) => read_tuple(*n, "Self"),
        Body::Unit => "__r.skip()?; ::std::result::Result::Ok(Self)".to_string(),
        Body::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    let path = format!("Self::{vn}");
                    match &v.kind {
                        VariantKind::Unit => format!(
                            "(\"{vn}\", ::std::option::Option::None) => ::std::result::Result::Ok({path}),"
                        ),
                        VariantKind::Tuple(1) => format!(
                            "(\"{vn}\", ::std::option::Option::Some(__r)) => ::std::result::Result::Ok({path}(::serde::Deserialize::deserialize(__r)?)),"
                        ),
                        VariantKind::Tuple(n) => format!(
                            "(\"{vn}\", ::std::option::Option::Some(__r)) => {{ {} }}",
                            read_tuple(*n, &path)
                        ),
                        VariantKind::Named(fields) => format!(
                            "(\"{vn}\", ::std::option::Option::Some(__r)) => {{ {} }}",
                            read_named(fields, &path)
                        ),
                    }
                })
                .collect();
            format!(
                "__r.read_variant(\"{name}\", |__tag, __payload| match (__tag, __payload) {{ \
                    {arms} \
                    (__other, _) => ::std::result::Result::Err(::serde::Error::msg(\
                        ::std::format!(\"unknown variant {{:?}} for {name}\", __other))), \
                }})",
                arms = arms.join(" "),
            )
        }
    };
    let where_c = &item.where_clause;
    format!(
        "impl{impl_g} ::serde::Deserialize for {name}{ty_g} {where_c} {{ \
            fn deserialize(__r: &mut ::serde::Reader<'_>) -> ::std::result::Result<Self, ::serde::Error> {{ {body} }} \
        }}"
    )
}

/// Statements reading the object at `__r` into the named-field struct or
/// variant `path`: each known member into its slot, unknown members
/// skipped. A struct without fields accepts any value.
fn read_named(fields: &[Field], path: &str) -> String {
    if fields.is_empty() {
        return format!("__r.skip()?; ::std::result::Result::Ok({path} {{}})");
    }
    let slots: String = (0..fields.len())
        .map(|i| format!("let mut __f{i} = ::std::option::Option::None; "))
        .collect();
    let arms: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            format!(
                "\"{0}\" => ::serde::read_member(&mut __f{i}, \"{0}\", __r), ",
                f.name
            )
        })
        .collect();
    let inits: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            if f.default {
                format!("{}: __f{i}.unwrap_or_default(), ", f.name)
            } else {
                format!("{0}: ::serde::member(__f{i}, \"{0}\")?, ", f.name)
            }
        })
        .collect();
    format!(
        "{slots} \
        __r.read_map(|__k, __r| match __k {{ {arms} _ => __r.skip(), }})?; \
        ::std::result::Result::Ok({path} {{ {inits} }})"
    )
}

/// Statements reading the array at `__r` into the `n`-field tuple struct
/// or variant `path`; elements past `n` are skipped.
fn read_tuple(n: usize, path: &str) -> String {
    if n == 0 {
        return format!("__r.skip()?; ::std::result::Result::Ok({path}())");
    }
    let slots: String = (0..n)
        .map(|i| format!("let mut __f{i} = ::std::option::Option::None; "))
        .collect();
    let arms: String = (0..n)
        .map(|i| format!("{i} => ::serde::read_element(&mut __f{i}, {i}, __r), "))
        .collect();
    let elems: Vec<String> = (0..n)
        .map(|i| format!("::serde::element(__f{i}, {i})?"))
        .collect();
    format!(
        "{slots} \
        __r.read_seq(|__i, __r| match __i {{ {arms} _ => __r.skip(), }})?; \
        ::std::result::Result::Ok({path}({}))",
        elems.join(", ")
    )
}
