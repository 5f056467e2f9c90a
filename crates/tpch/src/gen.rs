//! The generator proper.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stetho_engine::{Bat, Catalog, TableDef};
use stetho_mal::MalType;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TpchConfig {
    /// TPC-H scale factor; 0.001 ≈ 6,000 lineitem rows.
    pub scale_factor: f64,
    /// RNG seed (fixed default for reproducibility).
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale_factor: 0.001,
            seed: 0x5747_4801,
        }
    }
}

impl TpchConfig {
    /// Config at a given scale factor with the default seed.
    pub fn sf(scale_factor: f64) -> Self {
        TpchConfig {
            scale_factor,
            ..Default::default()
        }
    }

    fn scaled(&self, base: u64) -> usize {
        ((base as f64 * self.scale_factor).round() as usize).max(1)
    }
}

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const SHIPMODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const BRANDS: [&str; 5] = ["Brand#11", "Brand#22", "Brand#33", "Brand#44", "Brand#55"];
const TYPES: [&str; 6] = [
    "STANDARD ANODIZED",
    "SMALL PLATED",
    "MEDIUM POLISHED",
    "LARGE BRUSHED",
    "ECONOMY BURNISHED",
    "PROMO TIN",
];
const RETURNFLAGS: [&str; 3] = ["R", "A", "N"];
const FLAG_R: u32 = 0;
const FLAG_A: u32 = 1;
const FLAG_N: u32 = 2;
const LINESTATUSES: [&str; 2] = ["F", "O"];
const STATUS_F: u32 = 0;
const STATUS_O: u32 = 1;

/// Days since epoch for 1992-01-01 and the order-date span (TPC-H dates
/// run 1992-01-01 .. 1998-08-02).
const START_DATE: i32 = 8035;
const DATE_SPAN: i32 = 2405;

/// Generate the full TPC-H catalog at the configured scale.
pub fn generate_catalog(cfg: &TpchConfig) -> Catalog {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut catalog = Catalog::new();

    // region
    catalog.add_table(
        TableDef::new(
            "region",
            vec![
                col_int("r_regionkey", (0..REGIONS.len() as i64).collect()),
                col_str("r_name", REGIONS.iter().map(|s| s.to_string()).collect()),
            ],
        )
        .expect("region table"),
    );

    // nation
    catalog.add_table(
        TableDef::new(
            "nation",
            vec![
                col_int("n_nationkey", (0..NATIONS.len() as i64).collect()),
                col_str(
                    "n_name",
                    NATIONS.iter().map(|(n, _)| n.to_string()).collect(),
                ),
                col_int("n_regionkey", NATIONS.iter().map(|(_, r)| *r).collect()),
            ],
        )
        .expect("nation table"),
    );

    // supplier: 10,000 × sf
    let n_supp = cfg.scaled(10_000);
    catalog.add_table(
        TableDef::new(
            "supplier",
            vec![
                col_int("s_suppkey", (1..=n_supp as i64).collect()),
                col_str(
                    "s_name",
                    (1..=n_supp).map(|i| format!("Supplier#{i:09}")).collect(),
                ),
                col_int(
                    "s_nationkey",
                    (0..n_supp).map(|_| rng.gen_range(0..25)).collect(),
                ),
                col_dbl(
                    "s_acctbal",
                    (0..n_supp)
                        .map(|_| round2(rng.gen_range(-999.99..9999.99)))
                        .collect(),
                ),
            ],
        )
        .expect("supplier table"),
    );

    // part: 200,000 × sf
    let n_part = cfg.scaled(200_000);
    catalog.add_table(
        TableDef::new(
            "part",
            vec![
                col_int("p_partkey", (1..=n_part as i64).collect()),
                col_str(
                    "p_name",
                    (1..=n_part).map(|i| format!("part {i}")).collect(),
                ),
                col_enum("p_brand", &BRANDS, pick(&mut rng, n_part, BRANDS.len())),
                col_enum("p_type", &TYPES, pick(&mut rng, n_part, TYPES.len())),
                col_dbl(
                    "p_retailprice",
                    (0..n_part)
                        .map(|i| round2(900.0 + (i % 1000) as f64 * 0.1))
                        .collect(),
                ),
            ],
        )
        .expect("part table"),
    );

    // customer: 150,000 × sf
    let n_cust = cfg.scaled(150_000);
    catalog.add_table(
        TableDef::new(
            "customer",
            vec![
                col_int("c_custkey", (1..=n_cust as i64).collect()),
                col_str(
                    "c_name",
                    (1..=n_cust).map(|i| format!("Customer#{i:09}")).collect(),
                ),
                col_int(
                    "c_nationkey",
                    (0..n_cust).map(|_| rng.gen_range(0..25)).collect(),
                ),
                col_enum(
                    "c_mktsegment",
                    &SEGMENTS,
                    pick(&mut rng, n_cust, SEGMENTS.len()),
                ),
                col_dbl(
                    "c_acctbal",
                    (0..n_cust)
                        .map(|_| round2(rng.gen_range(-999.99..9999.99)))
                        .collect(),
                ),
            ],
        )
        .expect("customer table"),
    );

    // orders: 1,500,000 × sf
    let n_ord = cfg.scaled(1_500_000);
    let o_orderdate: Vec<i32> = (0..n_ord)
        .map(|_| START_DATE + rng.gen_range(0..DATE_SPAN))
        .collect();
    catalog.add_table(
        TableDef::new(
            "orders",
            vec![
                col_int("o_orderkey", (1..=n_ord as i64).collect()),
                col_int(
                    "o_custkey",
                    (0..n_ord)
                        .map(|_| rng.gen_range(1..=n_cust as i64))
                        .collect(),
                ),
                col_date("o_orderdate", o_orderdate.clone()),
                col_enum(
                    "o_orderpriority",
                    &PRIORITIES,
                    pick(&mut rng, n_ord, PRIORITIES.len()),
                ),
                col_dbl(
                    "o_totalprice",
                    (0..n_ord)
                        .map(|_| round2(rng.gen_range(850.0..560000.0)))
                        .collect(),
                ),
                col_int("o_shippriority", vec![0; n_ord]),
            ],
        )
        .expect("orders table"),
    );

    // lineitem: ~4 lines per order (6,000,000 × sf total on average).
    let mut l_orderkey = Vec::new();
    let mut l_partkey = Vec::new();
    let mut l_suppkey = Vec::new();
    let mut l_linenumber = Vec::new();
    let mut l_quantity = Vec::new();
    let mut l_extendedprice = Vec::new();
    let mut l_discount = Vec::new();
    let mut l_tax = Vec::new();
    let mut l_returnflag = Vec::new();
    let mut l_shipmode = Vec::new();
    let mut l_linestatus = Vec::new();
    let mut l_shipdate = Vec::new();
    for (oi, &odate) in o_orderdate.iter().enumerate() {
        let lines = rng.gen_range(1..=7);
        for ln in 1..=lines {
            l_orderkey.push(oi as i64 + 1);
            l_partkey.push(rng.gen_range(1..=n_part as i64));
            l_suppkey.push(rng.gen_range(1..=n_supp as i64));
            l_linenumber.push(ln as i64);
            let qty = rng.gen_range(1..=50i64);
            l_quantity.push(qty);
            let price = round2(qty as f64 * rng.gen_range(900.0..1100.0));
            l_extendedprice.push(price);
            l_discount.push(round2(rng.gen_range(0.0..0.10)));
            l_tax.push(round2(rng.gen_range(0.0..0.08)));
            let ship = odate + rng.gen_range(1..=121);
            l_shipdate.push(ship);
            l_shipmode.push(rng.gen_range(0..SHIPMODES.len()) as u32);
            // Flags per the TPC-H rule: returns for shipments before the
            // "current date" horizon, split R/A; later ones N.
            if ship <= START_DATE + DATE_SPAN - 151 {
                l_returnflag.push(if rng.gen_bool(0.5) { FLAG_R } else { FLAG_A });
                l_linestatus.push(STATUS_F);
            } else {
                l_returnflag.push(FLAG_N);
                l_linestatus.push(if rng.gen_bool(0.5) {
                    STATUS_O
                } else {
                    STATUS_F
                });
            }
        }
    }
    catalog.add_table(
        TableDef::new(
            "lineitem",
            vec![
                col_int("l_orderkey", l_orderkey),
                col_int("l_partkey", l_partkey),
                col_int("l_suppkey", l_suppkey),
                col_int("l_linenumber", l_linenumber),
                col_int("l_quantity", l_quantity),
                col_dbl("l_extendedprice", l_extendedprice),
                col_dbl("l_discount", l_discount),
                col_dbl("l_tax", l_tax),
                col_enum("l_returnflag", &RETURNFLAGS, l_returnflag),
                col_enum("l_linestatus", &LINESTATUSES, l_linestatus),
                col_date("l_shipdate", l_shipdate),
                col_enum("l_shipmode", &SHIPMODES, l_shipmode),
            ],
        )
        .expect("lineitem table"),
    );

    catalog
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

fn col_int(name: &str, v: Vec<i64>) -> (String, MalType, Bat) {
    (name.to_string(), MalType::Int, Bat::ints(v))
}

fn col_dbl(name: &str, v: Vec<f64>) -> (String, MalType, Bat) {
    (name.to_string(), MalType::Dbl, Bat::dbls(v))
}

fn col_str(name: &str, v: Vec<String>) -> (String, MalType, Bat) {
    (name.to_string(), MalType::Str, Bat::strs(v))
}

/// `n` uniform picks from a domain of `len` values, one RNG draw each.
fn pick(rng: &mut StdRng, n: usize, len: usize) -> Vec<u32> {
    (0..n).map(|_| rng.gen_range(0..len) as u32).collect()
}

/// An enumerated string column: row `i` holds `domain[codes[i]]`, stored
/// as codes into one dictionary of the domain.
fn col_enum(name: &str, domain: &[&str], codes: Vec<u32>) -> (String, MalType, Bat) {
    (
        name.to_string(),
        MalType::Str,
        Bat::from_codes(domain, codes),
    )
}

fn col_date(name: &str, v: Vec<i32>) -> (String, MalType, Bat) {
    (name.to_string(), MalType::Date, Bat::dates(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinalities_scale() {
        let c = generate_catalog(&TpchConfig::sf(0.001));
        assert_eq!(c.table("region").unwrap().rows(), 5);
        assert_eq!(c.table("nation").unwrap().rows(), 25);
        assert_eq!(c.table("customer").unwrap().rows(), 150);
        assert_eq!(c.table("orders").unwrap().rows(), 1500);
        let li = c.table("lineitem").unwrap().rows();
        assert!((4000..9000).contains(&li), "lineitem rows {li}");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = generate_catalog(&TpchConfig::sf(0.0005));
        let b = generate_catalog(&TpchConfig::sf(0.0005));
        let ca = a.column("lineitem", "l_quantity").unwrap();
        let cb = b.column("lineitem", "l_quantity").unwrap();
        assert_eq!(ca.as_ints().unwrap(), cb.as_ints().unwrap());
        let ca = a.column("orders", "o_totalprice").unwrap();
        let cb = b.column("orders", "o_totalprice").unwrap();
        assert_eq!(ca.as_dbls().unwrap(), cb.as_dbls().unwrap());
    }

    #[test]
    fn value_domains() {
        let c = generate_catalog(&TpchConfig::sf(0.001));
        let qty = c.column("lineitem", "l_quantity").unwrap();
        assert!(qty
            .as_ints()
            .unwrap()
            .iter()
            .all(|&q| (1..=50).contains(&q)));
        let disc = c.column("lineitem", "l_discount").unwrap();
        assert!(disc
            .as_dbls()
            .unwrap()
            .iter()
            .all(|&d| (0.0..=0.10).contains(&d)));
        let flags = c.column("lineitem", "l_returnflag").unwrap();
        for i in 0..flags.len() {
            let f = flags.get(i).unwrap();
            let f = f.as_str().unwrap();
            assert!(["R", "A", "N"].contains(&f));
        }
        let custkeys = c.column("orders", "o_custkey").unwrap();
        let n_cust = c.table("customer").unwrap().rows() as i64;
        assert!(custkeys
            .as_ints()
            .unwrap()
            .iter()
            .all(|&k| (1..=n_cust).contains(&k)));
    }

    #[test]
    fn referential_integrity_lineitem_orders() {
        let c = generate_catalog(&TpchConfig::sf(0.0005));
        let n_ord = c.table("orders").unwrap().rows() as i64;
        let ok = c.column("lineitem", "l_orderkey").unwrap();
        assert!(ok
            .as_ints()
            .unwrap()
            .iter()
            .all(|&k| (1..=n_ord).contains(&k)));
    }

    #[test]
    fn dates_in_range() {
        let c = generate_catalog(&TpchConfig::sf(0.0005));
        let d = c.column("lineitem", "l_shipdate").unwrap();
        let v = d.as_dates().unwrap();
        assert!(v
            .iter()
            .all(|&x| (START_DATE..=START_DATE + DATE_SPAN + 121).contains(&x)));
    }
}
