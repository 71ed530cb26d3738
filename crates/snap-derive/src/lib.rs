//! `#[derive(Persist)]` for the `itesp-snap` snapshot codec.
//!
//! Generates `itesp_snap::Persist` for structs (named, tuple or unit)
//! and enums by hand-parsing the item's token stream, so the workspace
//! builds offline without `syn`/`quote`. Fields are written in
//! declaration order; an enum writes its variant index as a `u8` tag,
//! then the variant's fields. Two attributes:
//!
//! * `#[persist(section = "TAG", version = N)]` on the item frames its
//!   bytes with a 4-byte section tag and a `u16` format version;
//! * `#[persist(skip)]` on a struct field leaves it out of the bytes;
//!   `load` keeps the value the field already holds.
//!
//! Decode errors are labelled `Type.field` (`Type::Variant.field` in
//! enums, `Type tag` for an unknown variant), so a failure names what
//! was being read.

use proc_macro::{Delimiter, Spacing, TokenStream, TokenTree};

#[proc_macro_derive(Persist, attributes(persist))]
pub fn derive_persist(input: TokenStream) -> TokenStream {
    let code = match Item::parse(input) {
        Ok(item) => item.persist_impl(),
        Err(msg) => format!("compile_error!({:?});", format!("derive(Persist): {msg}")),
    };
    code.parse().expect("generated Persist impl parses")
}

struct Field {
    /// Field name, or its index for tuple fields.
    name: String,
    ty: String,
    skip: bool,
}

enum Shape {
    Named(Vec<Field>),
    Tuple(Vec<Field>),
    Unit,
}

enum Body {
    Struct(Shape),
    Enum(Vec<(String, Shape)>),
}

struct Item {
    name: String,
    section: Option<(String, u16)>,
    body: Body,
}

/// What one `#[persist(...)]` attribute says.
enum Attr {
    Section(String, u16),
    Skip,
}

impl Item {
    fn parse(input: TokenStream) -> Result<Item, String> {
        let tokens: Vec<TokenTree> = input.into_iter().collect();
        let mut i = 0;
        let mut section = None;
        for attr in take_attrs(&tokens, &mut i)? {
            match attr {
                Attr::Section(tag, version) => section = Some((tag, version)),
                Attr::Skip => return Err("`skip` belongs on a field, not the item".into()),
            }
        }
        skip_vis(&tokens, &mut i);
        let kind = ident_at(&tokens, i).ok_or("expected `struct` or `enum`")?;
        let name = ident_at(&tokens, i + 1).ok_or("expected the item name")?;
        i += 2;
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
            return Err(format!("generic type {name} is not supported"));
        }
        let body = match (kind.as_str(), tokens.get(i)) {
            ("struct", Some(TokenTree::Group(g))) => {
                Body::Struct(parse_shape(g.delimiter(), g.stream())?)
            }
            ("struct", _) => Body::Struct(Shape::Unit),
            ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g.stream())?)
            }
            _ => return Err("expected a struct or an enum".into()),
        };
        Ok(Item {
            name,
            section,
            body,
        })
    }

    fn persist_impl(&self) -> String {
        let name = &self.name;
        let (save_section, load_section) = match &self.section {
            Some((tag, version)) => (
                format!("__w.section({tag:?}, {version});"),
                format!("__r.section({tag:?}, {version})?;"),
            ),
            None => (String::new(), String::new()),
        };
        let (save, load) = match &self.body {
            Body::Struct(shape) => struct_bodies(name, shape),
            Body::Enum(variants) => enum_bodies(name, variants),
        };
        format!(
            "impl ::itesp_snap::Persist for {name} {{\n\
             fn save(&self, __w: &mut ::itesp_snap::SnapWriter) {{ {save_section} {save} }}\n\
             fn load(&mut self, __r: &mut ::itesp_snap::SnapReader, _what: &'static str) \
             -> ::std::result::Result<(), ::itesp_snap::SnapError> {{ {load_section} {load} }}\n\
             }}"
        )
    }
}

fn struct_bodies(name: &str, shape: &Shape) -> (String, String) {
    let fields = match shape {
        Shape::Named(f) | Shape::Tuple(f) => f.as_slice(),
        Shape::Unit => &[],
    };
    let mut save = String::new();
    let mut load = String::new();
    for f in fields.iter().filter(|f| !f.skip) {
        let field = &f.name;
        save.push_str(&format!("::itesp_snap::Persist::save(&self.{field}, __w);"));
        load.push_str(&format!(
            "::itesp_snap::Persist::load(&mut self.{field}, __r, \"{name}.{field}\")?;"
        ));
    }
    load.push_str("Ok(())");
    (save, load)
}

fn enum_bodies(name: &str, variants: &[(String, Shape)]) -> (String, String) {
    let mut save_arms = String::new();
    let mut load_arms = String::new();
    for (tag, (variant, shape)) in variants.iter().enumerate() {
        let path = format!("{name}::{variant}");
        let fields = match shape {
            Shape::Named(f) | Shape::Tuple(f) => f.as_slice(),
            Shape::Unit => &[],
        };
        // Tuple fields bind as `f0, f1, ...`; named ones by name.
        let bind = |f: &Field| match shape {
            Shape::Tuple(_) => format!("f{}", f.name),
            _ => f.name.clone(),
        };
        let binds: Vec<String> = fields.iter().map(bind).collect();
        let pattern = match shape {
            Shape::Named(_) => format!("{path} {{ {} }}", binds.join(", ")),
            Shape::Tuple(_) => format!("{path}({})", binds.join(", ")),
            Shape::Unit => path.clone(),
        };
        let saves: String = binds
            .iter()
            .map(|b| format!("::itesp_snap::Persist::save({b}, __w);"))
            .collect();
        save_arms.push_str(&format!("{pattern} => {{ __w.u8({tag}); {saves} }}"));
        let loads: String = fields
            .iter()
            .zip(&binds)
            .map(|(f, b)| {
                format!(
                    "let mut {b}: {ty} = ::std::default::Default::default();\
                     ::itesp_snap::Persist::load(&mut {b}, __r, \"{path}.{field}\")?;",
                    ty = f.ty,
                    field = f.name,
                )
            })
            .collect();
        load_arms.push_str(&format!("{tag} => {{ {loads} {pattern} }}"));
    }
    let save = format!("match self {{ {save_arms} }}");
    let load = format!(
        "let __at = __r.pos();\
         *self = match __r.u8(\"{name} tag\")? {{\
         {load_arms}\
         _ => return Err(::itesp_snap::SnapError::Corrupt {{ what: \"{name} tag\", at: __at }}),\
         }};\
         Ok(())"
    );
    (save, load)
}

fn ident_at(tokens: &[TokenTree], i: usize) -> Option<String> {
    match tokens.get(i) {
        Some(TokenTree::Ident(id)) => Some(id.to_string()),
        _ => None,
    }
}

fn is_punct(t: Option<&TokenTree>, c: char) -> bool {
    matches!(t, Some(TokenTree::Punct(p)) if p.as_char() == c)
}

/// Consume leading `#[...]` attributes, returning the `persist` ones.
fn take_attrs(tokens: &[TokenTree], i: &mut usize) -> Result<Vec<Attr>, String> {
    let mut attrs = Vec::new();
    while is_punct(tokens.get(*i), '#') {
        let Some(TokenTree::Group(g)) = tokens.get(*i + 1) else {
            return Err("malformed attribute".into());
        };
        *i += 2;
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        if ident_at(&inner, 0).as_deref() != Some("persist") {
            continue;
        }
        let Some(TokenTree::Group(args)) = inner.get(1) else {
            return Err("expected `#[persist(...)]`".into());
        };
        attrs.push(parse_persist_args(args.stream())?);
    }
    Ok(attrs)
}

/// `skip`, or `section = "TAG", version = N`.
fn parse_persist_args(stream: TokenStream) -> Result<Attr, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.len() == 1 && ident_at(&tokens, 0).as_deref() == Some("skip") {
        return Ok(Attr::Skip);
    }
    let (mut tag, mut version) = (None, None);
    for pair in tokens.split(|t| is_punct(Some(t), ',')) {
        let (Some(key), true, Some(TokenTree::Literal(lit)), 3) = (
            ident_at(pair, 0),
            is_punct(pair.get(1), '='),
            pair.get(2),
            pair.len(),
        ) else {
            return Err("expected `skip` or `section = \"TAG\", version = N`".into());
        };
        let lit = lit.to_string();
        match key.as_str() {
            "section" => {
                let t = lit.trim_matches('"');
                if t.len() != 4 || lit.len() != 6 {
                    return Err(format!("section tag {lit} is not 4 bytes"));
                }
                tag = Some(t.to_string());
            }
            "version" => {
                version = Some(
                    lit.parse::<u16>()
                        .map_err(|_| format!("version {lit} is not a u16 literal"))?,
                );
            }
            other => return Err(format!("unknown persist key `{other}`")),
        }
    }
    match (tag, version) {
        (Some(t), Some(v)) => Ok(Attr::Section(t, v)),
        _ => Err("`section` needs both a tag and a version".into()),
    }
}

/// Skip `pub`, `pub(crate)` and friends.
fn skip_vis(tokens: &[TokenTree], i: &mut usize) {
    if ident_at(tokens, *i).as_deref() == Some("pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

fn parse_shape(delim: Delimiter, stream: TokenStream) -> Result<Shape, String> {
    match delim {
        Delimiter::Brace => Ok(Shape::Named(parse_fields(stream, true)?)),
        Delimiter::Parenthesis => Ok(Shape::Tuple(parse_fields(stream, false)?)),
        _ => Err("unexpected struct body".into()),
    }
}

/// Parse a comma-separated field list: `[attrs] [vis] name: Type` when
/// `named`, `[attrs] [vis] Type` otherwise.
fn parse_fields(stream: TokenStream, named: bool) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = take_attrs(&tokens, &mut i)?;
        if attrs.iter().any(|a| matches!(a, Attr::Section(..))) {
            return Err("`section` belongs on the item, not a field".into());
        }
        let skip = !attrs.is_empty();
        skip_vis(&tokens, &mut i);
        let name = if named {
            let name = ident_at(&tokens, i).ok_or("expected a field name")?;
            if !is_punct(tokens.get(i + 1), ':') {
                return Err(format!("expected `:` after field {name}"));
            }
            i += 2;
            name
        } else {
            fields.len().to_string()
        };
        // The type runs to the next comma outside `<...>`.
        let mut ty = String::new();
        let mut angle = 0i32;
        while i < tokens.len() {
            let t = &tokens[i];
            i += 1;
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => break,
                _ => {}
            }
            ty.push_str(&t.to_string());
            if !matches!(t, TokenTree::Punct(p) if p.spacing() == Spacing::Joint) {
                ty.push(' ');
            }
        }
        fields.push(Field { name, ty, skip });
    }
    Ok(fields)
}

fn parse_variants(stream: TokenStream) -> Result<Vec<(String, Shape)>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !take_attrs(&tokens, &mut i)?.is_empty() {
            return Err("`#[persist]` is not supported on enum variants".into());
        }
        let name = ident_at(&tokens, i).ok_or("expected a variant name")?;
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() != Delimiter::Bracket => {
                i += 1;
                parse_shape(g.delimiter(), g.stream())?
            }
            _ => Shape::Unit,
        };
        if let Shape::Named(f) | Shape::Tuple(f) = &shape {
            if f.iter().any(|f| f.skip) {
                return Err(format!("`skip` is not supported in variant {name}"));
            }
        }
        match tokens.get(i) {
            None => {}
            Some(t) if is_punct(Some(t), ',') => i += 1,
            Some(_) => {
                return Err(format!(
                    "explicit discriminant on {name}: tags are variant indices"
                ))
            }
        }
        variants.push((name, shape));
    }
    if variants.len() > 256 {
        return Err("more than 256 variants do not fit a u8 tag".into());
    }
    Ok(variants)
}
