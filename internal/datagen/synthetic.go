package datagen

import (
	"fmt"
	"math/rand"

	"normalize/internal/relation"
)

// col is one column specification of a synthetic dataset: gen receives
// the row index and the values generated so far for this row (by column
// name), enabling derived columns and hence real FD structure.
type col struct {
	name string
	gen  func(r *rand.Rand, i int, row map[string]string) string
}

// build materializes a synthetic relation from column specs.
func build(name string, rows int, seed int64, cols []col) *relation.Relation {
	r := rand.New(rand.NewSource(seed))
	attrs := make([]string, len(cols))
	for i, c := range cols {
		attrs[i] = c.name
	}
	data := make([][]string, rows)
	for i := range data {
		row := make(map[string]string, len(cols))
		vals := make([]string, len(cols))
		for j, c := range cols {
			v := c.gen(r, i, row)
			row[c.name] = v
			vals[j] = v
		}
		data[i] = vals
	}
	return relation.MustNew(name, attrs, data)
}

// Generator primitives.

func unique(prefix string) func(*rand.Rand, int, map[string]string) string {
	return func(_ *rand.Rand, i int, _ map[string]string) string {
		return fmt.Sprintf("%s%d", prefix, i)
	}
}

func category(prefix string, card int) func(*rand.Rand, int, map[string]string) string {
	return func(r *rand.Rand, _ int, _ map[string]string) string {
		return fmt.Sprintf("%s%d", prefix, r.Intn(card))
	}
}

func constant(v string) func(*rand.Rand, int, map[string]string) string {
	return func(*rand.Rand, int, map[string]string) string { return v }
}

// sparse returns null with probability p (percent), else a category.
func sparse(prefix string, card, pctNull int) func(*rand.Rand, int, map[string]string) string {
	return func(r *rand.Rand, _ int, _ map[string]string) string {
		if r.Intn(100) < pctNull {
			return ""
		}
		return fmt.Sprintf("%s%d", prefix, r.Intn(card))
	}
}

// derived computes a deterministic function of another column: the FD
// src → name holds by construction.
func derived(src, prefix string, modulus int) func(*rand.Rand, int, map[string]string) string {
	return func(_ *rand.Rand, _ int, row map[string]string) string {
		v := row[src]
		if v == "" {
			return ""
		}
		h := 0
		for _, b := range []byte(v) {
			h = h*31 + int(b)
		}
		if h < 0 {
			h = -h
		}
		return fmt.Sprintf("%s%d", prefix, h%modulus)
	}
}

// Horse is a synthetic stand-in for the Horse (colic) dataset of
// Table 3: 27 attributes × 368 records of sparse, low-cardinality
// veterinary measurements with a derived lesion-code hierarchy.
func Horse(seed int64) *Dataset {
	cols := []col{
		{"hospital_number", category("h", 330)},
		{"surgery", sparse("s", 4, 3)},
		{"age", category("a", 6)},
		{"rectal_temp", sparse("t", 60, 10)},
		{"pulse", sparse("p", 90, 10)},
		{"resp_rate", sparse("rr", 70, 12)},
		{"temp_extremities", sparse("te", 16, 8)},
		{"peripheral_pulse", sparse("pp", 16, 8)},
		{"mucous_membrane", sparse("mm", 24, 6)},
		{"cap_refill", sparse("cr", 8, 5)},
		{"pain", sparse("pn", 20, 6)},
		{"peristalsis", sparse("pe", 16, 6)},
		{"abdominal_distension", sparse("ad", 16, 6)},
		{"nasogastric_tube", sparse("nt", 12, 10)},
		{"nasogastric_reflux", sparse("nr", 12, 10)},
		{"reflux_ph", sparse("ph", 45, 35)},
		{"rectal_exam", sparse("re", 16, 10)},
		{"abdomen", sparse("ab", 20, 12)},
		{"packed_cell_volume", sparse("pcv", 80, 8)},
		{"total_protein", sparse("tp", 110, 8)},
		{"abdomo_appearance", sparse("aa", 12, 15)},
		{"abdomo_protein", sparse("ap", 80, 18)},
		{"outcome", category("o", 6)},
		{"surgical_lesion", category("sl", 4)},
		{"lesion_code", category("l", 110)},
		{"lesion_site", derived("lesion_code", "ls", 20)},
		{"lesion_type", derived("lesion_code", "lt", 8)},
	}
	return &Dataset{Name: "Horse", Denormalized: build("horse", 368, seed, cols)}
}

// Plista is a synthetic stand-in for the Plista news-recommendation log
// of Table 3: 63 attributes × 1000 records. Like the real dataset, most
// columns carry no information — they are constant, always null, or
// near-duplicates of other columns — so the *effective* width is only
// about twenty attributes; that is what keeps the real Plista at 178k
// FDs (with a single derivable key) despite its 63 columns.
func Plista(seed int64) *Dataset {
	cols := []col{
		{"event_id", unique("e")},
		{"timestamp", unique("t")},
		{"item_id", category("i", 300)},
		{"item_category", derived("item_id", "cat", 40)},
		{"item_publisher", derived("item_id", "pub", 25)},
		{"item_title_len", derived("item_id", "len", 90)},
		{"item_created", derived("item_id", "ts", 280)},
		{"publisher_domain", derived("item_publisher", "dom", 25)},
		{"user_id", sparse("u", 600, 8)},
		{"user_cookie", derived("user_id", "ck", 600)},
		{"session_id", category("sess", 700)},
		{"browser_family", category("bf", 25)},
		{"browser_version", category("bv", 120)},
		{"os_family", category("of", 20)},
		{"os_version", derived("os_family", "ov", 45)},
		{"device_type", category("dt", 12)},
		{"geo_city", category("gc", 250)},
		{"geo_region", derived("geo_city", "gr", 60)},
		{"geo_country", derived("geo_region", "co", 15)},
		{"isp", sparse("isp", 90, 10)},
	}
	// 25 constant or always-null columns (the bulk of real Plista).
	for i := 0; i < 25; i++ {
		name := fmt.Sprintf("meta_%02d", i)
		if i%2 == 0 {
			cols = append(cols, col{name, constant(fmt.Sprintf("v%d", i))})
		} else {
			cols = append(cols, col{name, constant("")})
		}
	}
	// 18 near-duplicates of informative columns (mirrored fields).
	dupSrc := []string{"item_id", "item_category", "item_publisher", "user_id",
		"session_id", "browser_family", "browser_version", "os_family",
		"geo_city", "geo_region", "geo_country", "device_type",
		"item_created", "item_title_len", "publisher_domain", "isp",
		"os_version", "user_cookie"}
	for i, src := range dupSrc {
		cols = append(cols, col{fmt.Sprintf("dup_%02d", i), derived(src, "q", 100000)})
	}
	return &Dataset{Name: "Plista", Denormalized: build("plista", 1000, seed, cols)}
}

// Amalgam1 is a synthetic stand-in for the Amalgam1 bibliography of
// Table 3: 87 attributes × 50 records. The extreme width/height ratio
// makes most attribute combinations coincidentally functional, which is
// why the real dataset has 450k minimal FDs and thousands of FD-keys.
func Amalgam1(seed int64) *Dataset {
	cols := []col{
		{"record_id", unique("rec")},
		{"title", unique("Title ")},
		{"year", category("y", 30)},
		{"venue_id", category("v", 38)},
		{"venue_name", derived("venue_id", "vn", 15)},
		{"venue_type", derived("venue_id", "vt", 4)},
		{"publisher_id", derived("venue_id", "pid", 8)},
		{"publisher_name", derived("publisher_id", "pn", 8)},
		{"publisher_city", derived("publisher_id", "pc", 8)},
	}
	for i := 0; i < 4; i++ {
		a := fmt.Sprintf("author%d_id", i+1)
		cols = append(cols,
			col{a, sparse("au", 46, i*6)},
			col{fmt.Sprintf("author%d_name", i+1), derived(a, "an", 30)},
			col{fmt.Sprintf("author%d_affil", i+1), derived(a, "af", 12)},
		)
	}
	// Over only 50 records, mid-cardinality columns make nearly every
	// 3-attribute set a key and the FD count explodes into the tens of
	// millions; the real Amalgam1 columns are mostly near-unique text
	// fields, which concentrates the minimal FDs at LHS sizes 1-2.
	for i := 0; i < 30; i++ {
		cols = append(cols, col{fmt.Sprintf("attr_cat_%02d", i), category("x", 42+i%8)})
	}
	for i := 0; i < 18; i++ {
		cols = append(cols, col{fmt.Sprintf("attr_sparse_%02d", i), sparse("sp", 44+i, 3+i%4)})
	}
	for i := 0; i < 18; i++ {
		src := fmt.Sprintf("attr_cat_%02d", i%30)
		cols = append(cols, col{fmt.Sprintf("attr_der_%02d", i), derived(src, "d", 40)})
	}
	return &Dataset{Name: "Amalgam1", Denormalized: build("amalgam1", 50, seed, cols)}
}

// Flight is a synthetic stand-in for the Flight dataset of Table 3:
// 109 attributes × 1000 records with rich airport/carrier/aircraft
// hierarchies on both flight endpoints — the derived attribute chains
// that give the real dataset its ~1M minimal FDs.
func Flight(seed int64) *Dataset {
	cols := []col{
		{"flight_id", unique("f")},
		{"carrier", category("ca", 16)},
		{"carrier_name", derived("carrier", "cn", 1000)},
		{"carrier_group", unique("cg")},
		{"flight_num", category("fn", 500)},
		{"tail_num", category("tn", 220)},
		{"aircraft_type", derived("tail_num", "at", 60)},
		{"aircraft_mfr", unique("am")},
		{"aircraft_year", unique("ay")},
		{"aircraft_seats", unique("as")},
	}
	endpoint := func(prefix string) []col {
		id := prefix + "_airport"
		return []col{
			{id, category(prefix+"ap", 90)},
			{prefix + "_airport_name", derived(id, prefix+"apn", 1000)},
			{prefix + "_city", derived(id, prefix+"ci", 70)},
			{prefix + "_city_name", derived(prefix+"_city", prefix+"cin", 1000)},
			{prefix + "_state", derived(prefix+"_city", prefix+"st", 45)},
			{prefix + "_state_name", derived(prefix+"_state", prefix+"stn", 1000)},
			{prefix + "_state_fips", unique(prefix + "fip")},
			{prefix + "_wac", unique(prefix + "wac")},
			{prefix + "_lat", derived(id, prefix+"la", 1000)},
			{prefix + "_lon", unique(prefix + "lo")},
			{prefix + "_tz", unique(prefix + "tz")},
			{prefix + "_elevation", unique(prefix + "el")},
			{prefix + "_runways", unique(prefix + "rw")},
			{prefix + "_hub_size", unique(prefix + "hub")},
			{prefix + "_country", constant("US")},
			{prefix + "_gate", sparse(prefix+"g", 120, 12)},
			{prefix + "_terminal", unique(prefix + "term")},
		}
	}
	cols = append(cols, endpoint("origin")...)
	cols = append(cols, endpoint("dest")...)
	cols = append(cols,
		col{"year", constant("2015")},
		col{"quarter", constant("3")},
		col{"month", category("m", 12)},
		col{"day_of_month", category("dom", 28)},
		col{"day_of_week", unique("dow")},
		col{"fl_date", derived("day_of_month", "fd", 1000)},
	)
	// Times and delays.
	timeCols := []string{
		"crs_dep_time", "dep_time", "dep_delay", "dep_delay_group", "taxi_out",
		"wheels_off", "wheels_on", "taxi_in", "crs_arr_time", "arr_time",
		"arr_delay", "arr_delay_group", "crs_elapsed", "actual_elapsed",
		"air_time", "distance", "distance_group",
	}
	for i, name := range timeCols {
		switch {
		case name == "distance_group":
			cols = append(cols, col{name, derived("distance", "dg", 11)})
		case name == "dep_delay_group":
			cols = append(cols, col{name, derived("dep_delay", "ddg", 15)})
		case name == "arr_delay_group":
			cols = append(cols, col{name, derived("arr_delay", "adg", 15)})
		case i%4 == 0:
			cols = append(cols, col{name, sparse("tm", 150+i*10, 5)})
		default:
			cols = append(cols, col{name, unique("tm" + name)})
		}
	}
	cols = append(cols,
		col{"cancelled", constant("0")},
		col{"cancellation_code", constant("")},
		col{"diverted", constant("0")},
	)
	delayCols := []string{"carrier_delay", "weather_delay", "nas_delay",
		"security_delay", "late_aircraft_delay"}
	for _, name := range delayCols {
		cols = append(cols, col{name, sparse("dl", 120, 20)})
	}
	// Pad with auxiliary operational codes to reach 109 attributes.
	for i := len(cols); i < 109; i++ {
		cols = append(cols, col{fmt.Sprintf("op_code_%02d", i), unique(fmt.Sprintf("op%d", i))})
	}
	return &Dataset{Name: "Flight", Denormalized: build("flight", 1000, seed, cols)}
}
