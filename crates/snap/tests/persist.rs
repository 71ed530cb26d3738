//! `#[derive(Persist)]` and the container impls: round trips, byte
//! determinism, `skip`, and the typed error for every failure.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use itesp_snap::{Persist, SnapError, SnapReader, SnapWriter};

#[derive(Debug, Clone, Default, PartialEq, Persist)]
enum Shape {
    #[default]
    Empty,
    Point(u32),
    Span {
        from: u64,
        to: u64,
    },
}

#[derive(Debug, Clone, Default, PartialEq, Persist)]
struct Id(u64);

#[derive(Debug, Clone, Default, PartialEq, Persist)]
#[persist(section = "TEST", version = 3)]
struct Everything {
    byte: u8,
    half: u16,
    word: u32,
    wide: u64,
    size: usize,
    flag: bool,
    real: f64,
    name: String,
    maybe: Option<Id>,
    list: Vec<Shape>,
    queue: VecDeque<(u64, bool)>,
    fixed: [u64; 3],
    ordered: BTreeMap<u64, Shape>,
    ordered_set: BTreeSet<u32>,
    hashed: HashMap<(u32, u32), u8>,
    hashed_set: HashSet<u64>,
}

fn sample() -> Everything {
    Everything {
        byte: 0xAB,
        half: 0xBEEF,
        word: u32::MAX,
        wide: u64::MAX - 1,
        size: 12_345,
        flag: true,
        real: -0.0,
        name: "tenant".into(),
        maybe: Some(Id(7)),
        list: vec![
            Shape::Empty,
            Shape::Point(9),
            Shape::Span { from: 1, to: 2 },
        ],
        queue: [(4, true), (5, false)].into_iter().collect(),
        fixed: [1, 2, 3],
        ordered: [(3, Shape::Point(1)), (1, Shape::Empty)]
            .into_iter()
            .collect(),
        ordered_set: [9, 4].into_iter().collect(),
        hashed: [((1, 2), 3), ((0, 9), 4)].into_iter().collect(),
        hashed_set: [8, 6, 7].into_iter().collect(),
    }
}

fn bytes_of<T: Persist>(v: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put(v);
    w.into_bytes()
}

fn decode<T: Persist + Default>(bytes: &[u8]) -> Result<T, SnapError> {
    let mut r = SnapReader::new(bytes);
    let v = r.get("decoded value")?;
    r.finish()?;
    Ok(v)
}

#[test]
fn every_shape_round_trips() {
    let v = sample();
    let back: Everything = decode(&bytes_of(&v)).unwrap();
    assert_eq!(back, v);
    assert!(back.real.is_sign_negative(), "f64 keeps its bit pattern");
}

#[test]
fn derived_bytes_are_the_field_list_in_order() {
    #[derive(Default, Persist)]
    #[persist(section = "PAIR", version = 1)]
    struct Pair {
        a: u32,
        b: Option<u64>,
    }
    let mut w = SnapWriter::new();
    w.section("PAIR", 1);
    w.u32(5);
    w.bool(true);
    w.u64(6);
    assert_eq!(bytes_of(&Pair { a: 5, b: Some(6) }), w.into_bytes());

    // Enum tags are variant indices.
    let mut w = SnapWriter::new();
    w.u8(2);
    w.u64(10);
    w.u64(11);
    assert_eq!(bytes_of(&Shape::Span { from: 10, to: 11 }), w.into_bytes());
}

#[test]
fn hash_containers_encode_independently_of_insertion_order() {
    let mut a = HashMap::new();
    let mut b = HashMap::new();
    for k in 0..200u64 {
        a.insert(k, k * 3);
        b.insert(199 - k, (199 - k) * 3);
    }
    assert_eq!(bytes_of(&a), bytes_of(&b));
    let sa: HashSet<u64> = (0..200).collect();
    let sb: HashSet<u64> = (0..200).rev().collect();
    assert_eq!(bytes_of(&sa), bytes_of(&sb));
    // ...and in the same order as the sorted BTreeMap.
    let sorted: BTreeMap<u64, u64> = a.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(bytes_of(&a), bytes_of(&sorted));
}

#[test]
fn skipped_fields_keep_their_constructed_value() {
    #[derive(Debug, Default, PartialEq, Persist)]
    #[persist(section = "SKIP", version = 1)]
    struct Model {
        #[persist(skip)]
        config: u64,
        state: Vec<u64>,
        #[persist(skip)]
        cache: Option<String>,
    }
    let saved = Model {
        config: 1,
        state: vec![4, 5],
        cache: Some("derived".into()),
    };
    let mut target = Model {
        config: 99,
        state: vec![7],
        cache: None,
    };
    let bytes = bytes_of(&saved);
    let mut r = SnapReader::new(&bytes);
    target.load(&mut r, "model").unwrap();
    r.finish().unwrap();
    assert_eq!(
        target,
        Model {
            config: 99,
            state: vec![4, 5],
            cache: None,
        }
    );
}

#[test]
fn unknown_enum_tag_is_corrupt_and_names_the_type() {
    let err = decode::<Shape>(&[7]).unwrap_err();
    assert_eq!(
        err,
        SnapError::Corrupt {
            what: "Shape tag",
            at: 0
        }
    );
    assert!(err.to_string().contains("Shape"), "{err}");
}

#[test]
fn section_and_version_mismatches_are_typed() {
    let bytes = bytes_of(&sample());

    let mut wrong_tag = bytes.clone();
    wrong_tag[..4].copy_from_slice(b"TSET");
    assert!(matches!(
        decode::<Everything>(&wrong_tag),
        Err(SnapError::BadSection {
            expected: [b'T', b'E', b'S', b'T'],
            found: [b'T', b'S', b'E', b'T'],
            at: 0,
        })
    ));

    let mut old = bytes.clone();
    old[4..6].copy_from_slice(&2u16.to_le_bytes());
    assert_eq!(
        decode::<Everything>(&old).unwrap_err(),
        SnapError::Version {
            section: *b"TEST",
            expected: 3,
            found: 2,
        }
    );
}

#[test]
fn truncation_is_typed_and_names_the_field() {
    let bytes = bytes_of(&sample());
    // Cut inside `wide` (tag 4 + version 2 + u8 + u16 + u32 = 13 bytes
    // before it).
    let err = decode::<Everything>(&bytes[..15]).unwrap_err();
    assert_eq!(
        err,
        SnapError::Truncated {
            what: "Everything.wide",
            at: 13
        }
    );
    // Every strict prefix fails with a typed error, never a panic.
    for cut in 0..bytes.len() {
        assert!(decode::<Everything>(&bytes[..cut]).is_err(), "cut {cut}");
    }
}

#[test]
fn repeated_keys_and_shape_mismatches_are_corrupt() {
    let mut w = SnapWriter::new();
    w.usize(2);
    w.u64(5);
    w.u64(5);
    let bytes = w.into_bytes();
    assert!(matches!(
        decode::<BTreeSet<u64>>(&bytes),
        Err(SnapError::Corrupt { at: 16, .. })
    ));
    assert!(matches!(
        decode::<HashSet<u64>>(&bytes),
        Err(SnapError::Corrupt { at: 16, .. })
    ));

    let mut slots = [0u64; 3];
    let mut r = SnapReader::new(&bytes);
    assert_eq!(
        r.load_exact(&mut slots, "slot count (config mismatch)"),
        Err(SnapError::Corrupt {
            what: "slot count (config mismatch)",
            at: 0
        })
    );
}
