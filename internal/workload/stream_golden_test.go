package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"decloud/internal/bidding"
)

// TestStreamGolden pins the emitted bytes of the stream shapes the
// benchmark builds (the live-TCP workloads and the book churn, at scale 1
// and seed 1) and of one geo + metro-mix stream: the SHA-256 of the JSON
// of Emit(n), each order as its client and its request or offer. A change
// to emission that moves any of these moves every benchmark input.
func TestStreamGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  StreamConfig
		n    int
		want string
	}{
		{"tcp", StreamConfig{Seed: 1, Clients: 64, EpochOrders: 512}, 2048,
			"e00dcc1380de1108b431418bf62b64b398c58d3a28c67511d85cc0d0287477e2"},
		{"book_churn", StreamConfig{Seed: 1, Clients: 16 * 512, OfferFraction: 0.20,
			EpochOrders: 32 * 512, GeoRadius: 0.015, ValuationLow: 0.01, ValuationHigh: 0.10}, 4096,
			"a087ebe907aa9bb20037429bbcdf767adc2fdfb78e70ee9b8eee0d0e23920da7"},
		{"geo_metro_mix", StreamConfig{Seed: 5, Clients: 32, EpochOrders: 64,
			GeoRadius: 0.5, GeoMetros: 4, GeoMix: []float64{6, 2, 1, 1}}, 640,
			"8cb8a140737757911dbac6a330e5f10515421ab058734fb5b874b25346e4c8b6"},
	}
	for _, tc := range cases {
		type emitted struct {
			Client  int
			Request *bidding.Request `json:",omitempty"`
			Offer   *bidding.Offer   `json:",omitempty"`
		}
		var orders []emitted
		for _, so := range NewStream(tc.cfg).Emit(tc.n) {
			orders = append(orders, emitted{so.Client, so.Request, so.Offer})
		}
		data, err := json.Marshal(orders)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: emission hash %s, want %s", tc.name, got, tc.want)
		}
	}
}
