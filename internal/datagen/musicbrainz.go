package datagen

import (
	"fmt"
	"math/rand"

	"normalize/internal/relation"
)

// MusicBrainz generates a synthetic music encyclopedia with the same
// eleven-table core and — crucially — the same non-snowflake topology
// as the MusicBrainz selection the paper denormalizes: artist_credit_name
// and release_label are n:m link tables, so the denormalized universal
// relation has no single-attribute key and Normalize must invent a
// fact-table-like top relation (the paper's Figure 4 finding). The
// scale parameter is the number of artists; the other cardinalities
// derive from it roughly like in the real dataset.
func MusicBrainz(artists int, seed int64) (*Dataset, error) {
	if artists < 4 {
		artists = 4
	}
	r := rand.New(rand.NewSource(seed))

	numAreas := artists/4 + 2
	numLabels := artists/3 + 2
	numCredits := artists
	numGroups := artists
	numReleases := artists * 2
	numPlaces := artists / 2

	areaRows := make([][]string, numAreas)
	areaTypes := []string{"Country", "City", "Subdivision", "District"}
	for i := range areaRows {
		areaRows[i] = []string{
			fmt.Sprint(i),
			fmt.Sprintf("Area %s %d", phrase(r, 1), i),
			pick(r, areaTypes),
			fmt.Sprintf("area-gid-%08d", i),
		}
	}
	area := relation.MustNew("area",
		[]string{"areakey", "area_name", "area_type", "area_gid"}, areaRows)

	artistTypes := []string{"Person", "Group", "Orchestra", "Choir"}
	genders := []string{"male", "female", ""}
	artistRows := make([][]string, artists)
	for i := range artistRows {
		begin := fmt.Sprint(1950 + r.Intn(60))
		artistRows[i] = []string{
			fmt.Sprint(i),
			fmt.Sprintf("Artist %s %d", phrase(r, 1), i),
			fmt.Sprintf("%d, artist %s", i, phrase(r, 1)),
			fmt.Sprint(r.Intn(numAreas)),
			begin,
			pick(r, artistTypes),
			pick(r, genders),
			fmt.Sprintf("artist-gid-%08d", i),
		}
	}
	artist := relation.MustNew("artist",
		[]string{"artistkey", "artist_name", "artist_sortname", "areakey",
			"artist_begin", "artist_type", "artist_gender", "artist_gid"},
		artistRows)

	creditRows := make([][]string, numCredits)
	for i := range creditRows {
		creditRows[i] = []string{
			fmt.Sprint(i),
			fmt.Sprintf("Credit %s %d", phrase(r, 1), i),
			fmt.Sprint(1 + r.Intn(3)),
			fmt.Sprint(r.Intn(100)),
		}
	}
	credit := relation.MustNew("artist_credit",
		[]string{"ackey", "ac_name", "ac_artistcount", "ac_refcount"}, creditRows)

	// artist_credit_name: n:m link between credits and artists.
	var acnRows [][]string
	for c := 0; c < numCredits; c++ {
		members := 1 + r.Intn(3)
		for m := 0; m < members; m++ {
			acnRows = append(acnRows, []string{
				fmt.Sprint(c),
				fmt.Sprint(m),
				fmt.Sprint(r.Intn(artists)),
				fmt.Sprintf("Credited %s", phrase(r, 1)),
				pick(r, []string{"", " feat. ", " & "}),
			})
		}
	}
	acn := relation.MustNew("artist_credit_name",
		[]string{"ackey", "acn_position", "artistkey", "acn_name", "acn_joinphrase"},
		acnRows)

	labelRows := make([][]string, numLabels)
	labelTypes := []string{"Original Production", "Reissue Production", "Distributor", "Holding"}
	for i := range labelRows {
		labelRows[i] = []string{
			fmt.Sprint(i),
			fmt.Sprintf("Label %s %d", phrase(r, 1), i),
			fmt.Sprint(10000 + i),
			pick(r, labelTypes),
			fmt.Sprint(r.Intn(numAreas)),
			fmt.Sprintf("label-gid-%08d", i),
		}
	}
	label := relation.MustNew("label",
		[]string{"labelkey", "label_name", "label_code", "label_type",
			"label_areakey", "label_gid"},
		labelRows)

	groupTypes := []string{"Album", "Single", "EP", "Compilation", "Live"}
	groupRows := make([][]string, numGroups)
	for i := range groupRows {
		groupRows[i] = []string{
			fmt.Sprint(i),
			fmt.Sprintf("Group %s %d", phrase(r, 1), i),
			pick(r, groupTypes),
			fmt.Sprint(r.Intn(numCredits)),
			fmt.Sprintf("rg-gid-%08d", i),
		}
	}
	group := relation.MustNew("release_group",
		[]string{"rgkey", "rg_name", "rg_type", "rg_ackey", "rg_gid"}, groupRows)

	statuses := []string{"Official", "Promotion", "Bootleg"}
	langs := []string{"eng", "deu", "fra", "jpn", "spa"}
	releaseRows := make([][]string, numReleases)
	for i := range releaseRows {
		g := r.Intn(numGroups)
		releaseRows[i] = []string{
			fmt.Sprint(i),
			fmt.Sprintf("Release %s %d", phrase(r, 1), i),
			fmt.Sprint(g),
			fmt.Sprint(r.Intn(numCredits)),
			pick(r, statuses),
			pick(r, langs),
			fmt.Sprintf("release-gid-%08d", i),
		}
	}
	release := relation.MustNew("release",
		[]string{"releasekey", "release_name", "rgkey", "release_ackey",
			"release_status", "release_lang", "release_gid"},
		releaseRows)

	// release_label: n:m link between releases and labels.
	var rlRows [][]string
	for rel := 0; rel < numReleases; rel++ {
		n := 1 + r.Intn(2)
		for l := 0; l < n; l++ {
			rlRows = append(rlRows, []string{
				fmt.Sprint(rel),
				fmt.Sprint(r.Intn(numLabels)),
				fmt.Sprintf("CAT-%05d-%d", rel, l),
			})
		}
	}
	releaseLabel := relation.MustNew("release_label",
		[]string{"releasekey", "labelkey", "rl_catalognumber"}, rlRows)

	formats := []string{"CD", "Vinyl", "Digital Media", "Cassette"}
	var mediumRows [][]string
	mediumID := 0
	mediumOfRelease := make([][]int, numReleases)
	for rel := 0; rel < numReleases; rel++ {
		n := 1 + r.Intn(2)
		for m := 0; m < n; m++ {
			mediumRows = append(mediumRows, []string{
				fmt.Sprint(mediumID),
				fmt.Sprint(rel),
				fmt.Sprint(m + 1),
				pick(r, formats),
			})
			mediumOfRelease[rel] = append(mediumOfRelease[rel], mediumID)
			mediumID++
		}
	}
	medium := relation.MustNew("medium",
		[]string{"mediumkey", "releasekey", "medium_position", "medium_format"},
		mediumRows)

	var trackRows [][]string
	trackID := 0
	for _, mediums := range mediumOfRelease {
		for _, m := range mediums {
			tracks := 2 + r.Intn(3)
			for tpos := 1; tpos <= tracks; tpos++ {
				trackRows = append(trackRows, []string{
					fmt.Sprint(trackID),
					fmt.Sprint(m),
					fmt.Sprint(tpos),
					fmt.Sprintf("Track %s %d", phrase(r, 1), trackID),
					fmt.Sprint(r.Intn(numCredits)),
					fmt.Sprint(120000 + r.Intn(300000)),
				})
				trackID++
			}
		}
	}
	track := relation.MustNew("track",
		[]string{"trackkey", "mediumkey", "track_position", "track_name",
			"ackey", "track_length"},
		trackRows)

	placeTypes := []string{"Venue", "Studio", "Stadium", "Religious building"}
	placeRows := make([][]string, numPlaces)
	for i := range placeRows {
		placeRows[i] = []string{
			fmt.Sprint(i),
			fmt.Sprintf("Place %s %d", phrase(r, 1), i),
			pick(r, placeTypes),
			fmt.Sprint(r.Intn(numAreas)),
			fmt.Sprintf("place-gid-%08d", i),
		}
	}
	place := relation.MustNew("place",
		[]string{"placekey", "place_name", "place_type", "areakey", "place_gid"},
		placeRows)

	// Denormalize: track → medium → release → release_group,
	// release_label → label, the track's artist_credit →
	// artist_credit_name → artist → area → place. The two n:m link
	// tables and the area ⋈ place hop make the join explode — the paper
	// limits record counts for the same reason, so callers should keep
	// the scale modest.
	denorm, err := joinAll("musicbrainz",
		track, medium, release, group, releaseLabel, label, credit, acn,
		artist, area, place)
	if err != nil {
		return nil, err
	}

	return &Dataset{
		Name: "MusicBrainz",
		Original: []*relation.Relation{
			area, artist, credit, acn, label, group, release, releaseLabel,
			medium, track, place,
		},
		Denormalized: denorm,
	}, nil
}
