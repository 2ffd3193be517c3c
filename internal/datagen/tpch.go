package datagen

import (
	"fmt"
	"math/rand"

	"normalize/internal/relation"
)

// TPCH generates the eight TPC-H relations at the given scale factor
// (1.0 corresponds to the official SF1 cardinalities) and the
// denormalized 52-attribute universal relation of the paper's
// evaluation. Join-key attributes share names across relations so that
// natural joins reconstruct the foreign-key paths; the supplier's
// nation column is deliberately named s_nationkey because a universal
// relation can carry only one nation/region lineage (the customer's).
//
// o_shippriority is generated as a function of the customer's region —
// TPC-H's o_shippriority is constant, and deriving it from the region
// reproduces the schema flaw the paper observes in Figure 3
// (shippriority ends up in the REGION relation).
func TPCH(sf float64, seed int64) (*Dataset, error) {
	r := rand.New(rand.NewSource(seed))

	numSupp := scaleCount(10000, sf, 5)
	numCust := scaleCount(150000, sf, 10)
	numPart := scaleCount(200000, sf, 10)
	numOrders := scaleCount(1500000, sf, 25)

	regionNames := []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	regionRows := make([][]string, len(regionNames))
	for i, n := range regionNames {
		regionRows[i] = []string{fmt.Sprint(i), n}
	}
	region := relation.MustNew("region", []string{"regionkey", "r_name"}, regionRows)

	nationNames := []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
		"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
		"JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
		"ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
		"UNITED STATES",
	}
	nationRows := make([][]string, len(nationNames))
	for i, n := range nationNames {
		nationRows[i] = []string{fmt.Sprint(i), n, fmt.Sprint(i % 5), phrase(r, 4)}
	}
	nation := relation.MustNew("nation",
		[]string{"nationkey", "n_name", "regionkey", "n_comment"}, nationRows)

	suppRows := make([][]string, numSupp)
	for i := range suppRows {
		suppRows[i] = []string{
			fmt.Sprint(i),
			fmt.Sprintf("Supplier#%09d", i),
			phrase(r, 2),
			fmt.Sprint(r.Intn(25)),
			fmt.Sprintf("%02d-%07d", 10+r.Intn(25), r.Intn(10000000)),
			fmt.Sprintf("%d.%02d", r.Intn(9000), r.Intn(100)),
			phrase(r, 5),
		}
	}
	supplier := relation.MustNew("supplier",
		[]string{"suppkey", "s_name", "s_address", "s_nationkey", "s_phone", "s_acctbal", "s_comment"},
		suppRows)

	partRows := make([][]string, numPart)
	brands := []string{"Brand#11", "Brand#12", "Brand#23", "Brand#34", "Brand#45"}
	types := []string{"SMALL PLATED", "LARGE BRUSHED", "MEDIUM ANODIZED", "ECONOMY POLISHED", "STANDARD BURNISHED"}
	containers := []string{"SM CASE", "LG BOX", "MED BAG", "JUMBO JAR", "WRAP PKG"}
	for i := range partRows {
		partRows[i] = []string{
			fmt.Sprint(i),
			phrase(r, 3),
			fmt.Sprintf("Manufacturer#%d", 1+i%5),
			brands[i%len(brands)],
			pick(r, types),
			intsBetween(r, 1, 50),
			pick(r, containers),
			fmt.Sprintf("%d.%02d", 900+i%100, i%100),
			phrase(r, 4),
		}
	}
	part := relation.MustNew("part",
		[]string{"partkey", "p_name", "p_mfgr", "p_brand", "p_type", "p_size", "p_container", "p_retailprice", "p_comment"},
		partRows)

	// partsupp: each part is offered by up to 4 distinct suppliers
	// (suppkeys (p+k) mod numSupp for k = 0..3, capped by numSupp so the
	// (partkey, suppkey) pairs stay unique).
	suppsPerPart := 4
	if suppsPerPart > numSupp {
		suppsPerPart = numSupp
	}
	var psRows [][]string
	for p := 0; p < numPart; p++ {
		for k := 0; k < suppsPerPart; k++ {
			psRows = append(psRows, []string{
				fmt.Sprint(p),
				fmt.Sprint((p + k) % numSupp),
				intsBetween(r, 1, 9999),
				fmt.Sprintf("%d.%02d", r.Intn(1000), r.Intn(100)),
				phrase(r, 6),
			})
		}
	}
	partsupp := relation.MustNew("partsupp",
		[]string{"partkey", "suppkey", "ps_availqty", "ps_supplycost", "ps_comment"},
		psRows)

	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	custRows := make([][]string, numCust)
	for i := range custRows {
		custRows[i] = []string{
			fmt.Sprint(i),
			fmt.Sprintf("Customer#%09d", i),
			phrase(r, 2),
			fmt.Sprint(r.Intn(25)),
			fmt.Sprintf("%02d-%07d", 10+r.Intn(25), r.Intn(10000000)),
			fmt.Sprintf("%d.%02d", r.Intn(9000), r.Intn(100)),
			pick(r, segments),
			phrase(r, 5),
		}
	}
	customer := relation.MustNew("customer",
		[]string{"custkey", "c_name", "c_address", "nationkey", "c_phone", "c_acctbal", "c_mktsegment", "c_comment"},
		custRows)

	// Customer region lookup for the shippriority correlation.
	custRegion := make([]int, numCust)
	for i, row := range custRows {
		nk := 0
		fmt.Sscan(row[3], &nk)
		custRegion[i] = nk % 5
	}

	priorities := []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	orderRows := make([][]string, numOrders)
	for i := range orderRows {
		cust := r.Intn(numCust)
		orderRows[i] = []string{
			fmt.Sprint(i),
			fmt.Sprint(cust),
			pick(r, []string{"O", "F", "P"}),
			fmt.Sprintf("%d.%02d", 1000+r.Intn(300000), r.Intn(100)),
			date(r),
			pick(r, priorities),
			fmt.Sprintf("Clerk#%09d", r.Intn(numSupp+1)),
			fmt.Sprint(custRegion[cust] % 2), // region-derived, see doc comment
			phrase(r, 6),
		}
	}
	orders := relation.MustNew("orders",
		[]string{"orderkey", "custkey", "o_orderstatus", "o_totalprice", "o_orderdate",
			"o_orderpriority", "o_clerk", "o_shippriority", "o_comment"},
		orderRows)

	instructs := []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	modes := []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "REG AIR", "FOB"}
	var liRows [][]string
	for o := 0; o < numOrders; o++ {
		lines := 1 + r.Intn(4)
		for l := 0; l < lines; l++ {
			p := r.Intn(numPart)
			s := (p + r.Intn(suppsPerPart)) % numSupp
			liRows = append(liRows, []string{
				fmt.Sprint(o),
				fmt.Sprint(p),
				fmt.Sprint(s),
				fmt.Sprint(l + 1),
				intsBetween(r, 1, 50),
				fmt.Sprintf("%d.%02d", 900+r.Intn(90000), r.Intn(100)),
				fmt.Sprintf("0.%02d", r.Intn(11)),
				fmt.Sprintf("0.%02d", r.Intn(9)),
				pick(r, []string{"A", "N", "R"}),
				pick(r, []string{"O", "F"}),
				date(r),
				date(r),
				date(r),
				pick(r, instructs),
				pick(r, modes),
				phrase(r, 4),
			})
		}
	}
	lineitem := relation.MustNew("lineitem",
		[]string{"orderkey", "partkey", "suppkey", "l_linenumber", "l_quantity",
			"l_extendedprice", "l_discount", "l_tax", "l_returnflag", "l_linestatus",
			"l_shipdate", "l_commitdate", "l_receiptdate", "l_shipinstruct",
			"l_shipmode", "l_comment"},
		liRows)

	denorm, err := joinAll("tpch",
		lineitem, orders, customer, nation, region, supplier, part, partsupp)
	if err != nil {
		return nil, err
	}

	return &Dataset{
		Name: "TPC-H",
		Original: []*relation.Relation{
			region, nation, supplier, part, partsupp, customer, orders, lineitem,
		},
		Denormalized: denorm,
	}, nil
}
