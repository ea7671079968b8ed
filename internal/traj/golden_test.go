package traj

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"surfdeformer/internal/defect"
	"surfdeformer/internal/sim"
)

// goldenScenario is one input row of the golden digest table.
type goldenScenario struct {
	name  string
	cfg   func() Config
	seeds int64
}

// goldenScenarios are the pinned inputs: every arm over the single-patch
// scenarios (default, drift-only, a 5%-defective device, the half-life
// estimator) and over the 2-patch simon layout.
func goldenScenarios() []goldenScenario {
	device := func() Config {
		cfg := QuickConfig()
		cfg.Device = defect.NewDeviceModel(0.05)
		return cfg
	}
	halflife := func() Config {
		cfg := QuickConfig()
		cfg.Halflife = 30
		return cfg
	}
	return []goldenScenario{
		{"quick", QuickConfig, 4},
		{"drift", DriftOnlyConfig, 4},
		{"device", device, 4},
		{"halflife", halflife, 4},
		{"layout-simon", quickLayoutConfig, 2},
	}
}

// resultDigest is the SHA-256 of a Result's JSON encoding — the bytes the
// experiment store persists.
func resultDigest(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenDigests pins the engine's output byte for byte: the digest of
// every (scenario, arm, seed) Result must match the table below. A mismatch
// is a change of stored results — it needs a trajEngineRev bump in
// internal/experiments and a regenerated table (each failing subtest prints
// its new entries). The (scenario, arm) subtests run in parallel; the arms
// of a scenario share one DEM cache, as the arms of a scan do.
func TestGoldenDigests(t *testing.T) {
	for _, sc := range goldenScenarios() {
		cache := sim.NewDEMCache(0)
		for _, mode := range allModes() {
			sc, mode := sc, mode
			t.Run(sc.name+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				cfg := sc.cfg()
				cfg.Cache = cache
				var regen []string
				for seed := int64(1); seed <= sc.seeds; seed++ {
					key := fmt.Sprintf("%s/%s/%d", sc.name, mode, seed)
					r, err := Run(cfg, mode, seed)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					got := resultDigest(t, r)
					if want, ok := goldenDigests[key]; !ok || got != want {
						t.Errorf("%s: digest %s, want %s", key, got, want)
					}
					regen = append(regen, fmt.Sprintf("\t%q: %q,", key, got))
					if cfg.Layout == nil && seed == 1 {
						checkOnePatchLayout(t, cfg, mode, seed, key, got)
					}
				}
				if t.Failed() {
					t.Logf("regenerated entries:\n%s", strings.Join(regen, "\n"))
				}
			})
		}
	}
}

// TestGoldenDigestsSqueezedTable pins the reset rule of the trajectory's
// private DEM bound: the golden runs repeat one by one with the bound
// squeezed to 8 DEMs, so the table resets mid-trajectory, and every digest
// must match the table below. A reset forgets the trajectory's overlay
// models, so OverlayDEMBuilds rises wherever one is revisited after a
// reset (21 of the 90 digests differ from goldenDigests); everything else
// stays put. The digests were generated before the per-trajectory DEM
// cache and per-DEM memo became one table, whose bound keeps the cache's
// rule: only the DEMs a trajectory built count, a build at the bound
// resets, and a lookup of a pristine-shape nominal held only as a shared
// entry misses.
func TestGoldenDigestsSqueezedTable(t *testing.T) {
	defer setHotCacheLimit(8)()
	var regen []string
	for _, sc := range goldenScenarios() {
		cfg := sc.cfg()
		cfg.Cache = sim.NewDEMCache(0)
		for _, mode := range allModes() {
			for seed := int64(1); seed <= sc.seeds; seed++ {
				key := fmt.Sprintf("%s/%s/%d", sc.name, mode, seed)
				r, err := Run(cfg, mode, seed)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := resultDigest(t, r)
				if want, ok := squeezedDigests[key]; !ok || got != want {
					t.Errorf("%s: digest %s, want %s", key, got, want)
				}
				regen = append(regen, fmt.Sprintf("\t%q: %q,", key, got))
			}
		}
	}
	if t.Failed() {
		t.Logf("regenerated entries:\n%s", strings.Join(regen, "\n"))
	}
}

// checkOnePatchLayout pins the N=1 reduction: a 1-patch layout without a
// program is the single-patch trajectory plus its one per-patch slice —
// dropping the slice must reproduce the single-patch digest. A lone patch
// has no routing channels, so strike sites overhanging its tile stay its
// own and no channel counters appear.
func checkOnePatchLayout(t *testing.T, cfg Config, mode Mode, seed int64, key, want string) {
	t.Helper()
	cfg.Layout = &LayoutConfig{Patches: 1}
	r, err := Run(cfg, mode, seed)
	if err != nil {
		t.Fatalf("%s 1-patch layout: %v", key, err)
	}
	if len(r.Patches) != 1 {
		t.Fatalf("%s: 1-patch layout result has %d patch slices", key, len(r.Patches))
	}
	r.Patches = nil
	if got := resultDigest(t, r); got != want {
		t.Errorf("%s: 1-patch layout diverges from the single-patch trajectory: %+v", key, r)
	}
}

// goldenDigests maps "scenario/arm/seed" to the Result digest.
var goldenDigests = map[string]string{
	"device/asc-s/1":               "19e3de2c5fa25d462ebb742d7c1c8e38063346f5ff6a4277ca4d8d7edba3b90b",
	"device/asc-s/2":               "28c8b76a8f8211f74b2a7144767520596425a6350c92cf841cfc35c7f33d361f",
	"device/asc-s/3":               "e239c4686593fa0e340ae4d379541146e9b544ffae51e111a1d592bd69a0b3be",
	"device/asc-s/4":               "9ff4d56db5f20de5253fa86c2c931c0a3d2a898966c8dee66d8c404a22aad5cb",
	"device/reweight-only/1":       "acfb1698a95d22c0a5d3feb6c745f1fead6d12130237c0bcab6730e2196f0f54",
	"device/reweight-only/2":       "3f68438bf024c1a5e2119623085466ccdcbc1701959ee52577495eabf6f0539c",
	"device/reweight-only/3":       "5b1d6beabc3d924eb1b3d19ba4089eb82eb4dca3155cf960ac418ac7a4c53beb",
	"device/reweight-only/4":       "50d095a7ed33aa40c842f1f99531b483f3f734fa66bc56cee4d8ee0c89993806",
	"device/super-only/1":          "3b65eaff3ad167051e94d2d475ab22dc3f6f4d226796acd319ec240169e54e48",
	"device/super-only/2":          "a42ed70c8f378d57454b1446695f88af79c3f4de629401f73aedea88a0e1f8a7",
	"device/super-only/3":          "326048498c8643446428662dc769704b2f82d7091d4e227eeb173d3a923b3221",
	"device/super-only/4":          "a740a2912a39165bdcd36427f58fd057407c512fd850d776943215d4f0d09b73",
	"device/surf-deformer/1":       "9c93f7555366d1ec01eaf5bb91c313283e3777db07e3e4b8915adb20a6a7cade",
	"device/surf-deformer/2":       "623accf977e1feeb5281882060293990e561fc64a3d284475a7fc45292a7d79b",
	"device/surf-deformer/3":       "2323465a3a6acd2f3db00a10010a67188495a4c1d8ee2d3bf03bbaf20b03de72",
	"device/surf-deformer/4":       "25c982a9dccae7a52d630794712e890d61fc9df77c926bdd569de8289176d95d",
	"device/untreated/1":           "54d0620e728873552f73f2ebda788ad702385da9614dd5e750580e99b99f34bb",
	"device/untreated/2":           "b573ebc77bf44af1f3ae4ac0709d34fd5de3ef49a87a2cafad7c873a5be0567c",
	"device/untreated/3":           "99b9d4836b2d6bd698e836dac3ce0dd606b9568fc56155df17133847c2140633",
	"device/untreated/4":           "9299e691c7b04476e03ea32883f16c3284a920a6c90b1886e05570cb6222b091",
	"drift/asc-s/1":                "f0077c131204492d7d5eb39eac7357b5e1cd5c75266726fc2c5d1b956df387f1",
	"drift/asc-s/2":                "780bdf75374778f57cd74d21aca89800c68736ca9eb45f7eea528164efe9492a",
	"drift/asc-s/3":                "659064f7492de9182d3f11354329dd2f156e8756ae123cfb033a5f725567f7ab",
	"drift/asc-s/4":                "ec78d3c902467cfb53337f8e0edb69e0423c7fbf8a1ae7d294396eac6efb870d",
	"drift/reweight-only/1":        "76c88e58a9281595947621099cd19257a8b4f36464e919b7b3f6049a5c04dc7e",
	"drift/reweight-only/2":        "ea6b2ee9ddeecfb7da31126b18a74960df4a691526773fca8a1e41350ad609b2",
	"drift/reweight-only/3":        "f0fe2707ba89d273b606db6cc0470191768fa195cd02d1add4c757bb88f0134b",
	"drift/reweight-only/4":        "88280908d19cae2f6234e1a4700e36b04974ed08302c63c107bcc6c6c81d276a",
	"drift/super-only/1":           "7183f9aee7297bfe813ebdad09d4476733e4459ea6b40140f340357e17711b0d",
	"drift/super-only/2":           "408ec4a232bc484943e377d0f9145eec909c64331b23c55f3299b09a8e2ffa5e",
	"drift/super-only/3":           "d28ead5232a0ba93a89246d49ff8da2bc48785a13e705be47b594d58f556d354",
	"drift/super-only/4":           "12c516d5f26ebaf5ddf0292d0651777812a7ae0dfc6620db2eec92ddd6ad5074",
	"drift/surf-deformer/1":        "3b3f5ecf24ec4df5390423ba110873a75bd0ee2dd039892424d30e009323c088",
	"drift/surf-deformer/2":        "b377869b9c7dcc690403c6259e76bb120f3da6961ff8493d674f4ae0bacb35e0",
	"drift/surf-deformer/3":        "5b8184b29bb945b0f26dce9aac7f04b22e7d9b8f6b53abfcec90d2a5b77de822",
	"drift/surf-deformer/4":        "2f1efe25c02a3b4959097e091baf30f77927c58e1b90b7143e667ee4f8ad4a84",
	"drift/untreated/1":            "326edec9d6fe1bf2d8670227658d4626a232c663d2445686fb26175bd15c0eab",
	"drift/untreated/2":            "0e4f16c84724bce6c956724b6fbf4a65f2871102f6547816c5b1d9eb6efcdd0f",
	"drift/untreated/3":            "5f8774e8b8151c9ea8b7e743bc18e600d5663303ccb0f863df4978bf42f0d3e3",
	"drift/untreated/4":            "0b087ce3d1c265e72b42cad593b811307c243513c0025a9903bb04c17e8b9f43",
	"halflife/asc-s/1":             "e5f217f6cb590660bae426764a2fb2e2bf5e2073d5274f633a228c24365032cb",
	"halflife/asc-s/2":             "cfc8de813bcf76d9709dcd8ba988d3008b7bb28fa9c9fdb85e2540aeba619580",
	"halflife/asc-s/3":             "411a71005e98647863abd4bd43eb0531a39fe95b6671289e9264ed3d9a89bad3",
	"halflife/asc-s/4":             "9ff4d56db5f20de5253fa86c2c931c0a3d2a898966c8dee66d8c404a22aad5cb",
	"halflife/reweight-only/1":     "1fcb341716287e4fe21bdf31cbec1f009e709623db7ec4de0fc869a2b571bb5c",
	"halflife/reweight-only/2":     "b6a79577a140b3cd210cd818ce8a6d12b42ac1ec20aa58f068fe08ef10a21eb4",
	"halflife/reweight-only/3":     "73c240cbb21c5c252d7bfb22cce856896aeee7cb9ab8588b9c007867a27cb503",
	"halflife/reweight-only/4":     "ebf30fc6f13bcfbee1f8067a88bc1363f6d77601bd615c56418014e9c5a157b6",
	"halflife/super-only/1":        "4f7428f016eddf4dc730b46fa80596565d844db23c44609c000a54a3625fe89a",
	"halflife/super-only/2":        "b2640c25d005df89344aca6e0ad14e100b66bfb305696eb6db3dc07145bd1ffb",
	"halflife/super-only/3":        "966ce5a3c0a7f2adc0b92740ab245dbfde2fe530271eebc0b1b3f1fd005cc4bc",
	"halflife/super-only/4":        "a740a2912a39165bdcd36427f58fd057407c512fd850d776943215d4f0d09b73",
	"halflife/surf-deformer/1":     "c60a280a2334f40e384668bbaa69e7755d58a8e3ab49ef44de15ae859c07d8ba",
	"halflife/surf-deformer/2":     "2cfa8ec89519c715890f0b60361abc5de382fe7d3716ea817c5ba9416f118009",
	"halflife/surf-deformer/3":     "d8694330d685e291b55e3f5757fee91890b97bfd01d9696cd5f63d9cb0b5acb3",
	"halflife/surf-deformer/4":     "0a5fc6b48df0b2cbd3be2ce9a584f78f4835d2111fc2532cc913163804e19247",
	"halflife/untreated/1":         "71ac9569d45e16150266dcb41d6df31e1343e245896fac31f938b134f3e78d55",
	"halflife/untreated/2":         "5186d40e31d021b52e1defee96b08cba6a78121c2cfa359f24aab3be029ba230",
	"halflife/untreated/3":         "e5c1089001e8e977410d02db255f5c16d280a6dbcc56df54501a1d318cb2c4bf",
	"halflife/untreated/4":         "9299e691c7b04476e03ea32883f16c3284a920a6c90b1886e05570cb6222b091",
	"layout-simon/asc-s/1":         "bd179cf51c932eb57f84b1eae3f619af5b9b19da720b2e5386a1ce266051b89d",
	"layout-simon/asc-s/2":         "555b5652c7a72f398feffdb46d351b92f4a8a918ac897d67c29810e441eb6cf1",
	"layout-simon/reweight-only/1": "c14032e27838925a02611e9941fcf99dc0a76e414ebdd80bc49314f559aa3bee",
	"layout-simon/reweight-only/2": "cafd9a5b57fb5a675383b8116f34b0dc849e269cedb9948e7a239ed482781d19",
	"layout-simon/super-only/1":    "cfeb5211ae8a2506bf20f40e56af120407ad28455a5f30e6ececfa9a980233ff",
	"layout-simon/super-only/2":    "d926879ab7a0147edce83427c58ba4fe8c6a0e2e25cd56f9df4d8a3c8684d0b4",
	"layout-simon/surf-deformer/1": "d3dae1c802d519c4aea828637e98d5465299bfdbc9c491a3218eeedef5029e60",
	"layout-simon/surf-deformer/2": "0ec5919ddda0d7c316a1ffdfc4bd178274d6279e8162508152bf957f9ccbffd3",
	"layout-simon/untreated/1":     "0b6055f65cb9ffb2487e2cc5ebc8947e9891036efc5b8ad04b10971811097bb9",
	"layout-simon/untreated/2":     "49e177bb3cc53bb4bb086e83908691a2af57a51a76bb96f9c480f53683a34638",
	"quick/asc-s/1":                "e5f217f6cb590660bae426764a2fb2e2bf5e2073d5274f633a228c24365032cb",
	"quick/asc-s/2":                "cfc8de813bcf76d9709dcd8ba988d3008b7bb28fa9c9fdb85e2540aeba619580",
	"quick/asc-s/3":                "411a71005e98647863abd4bd43eb0531a39fe95b6671289e9264ed3d9a89bad3",
	"quick/asc-s/4":                "9ff4d56db5f20de5253fa86c2c931c0a3d2a898966c8dee66d8c404a22aad5cb",
	"quick/reweight-only/1":        "d7e7e82f8db06f56ded4ae063bcb92d6aab96670bd0d2e1d69743b3c87da866a",
	"quick/reweight-only/2":        "31ed10cded79a43b1c37408c37dcd54cb8fa699cf348ee6e6532aeb4f5102069",
	"quick/reweight-only/3":        "7d7bdf52200e5322a39af5d00c53de7813f1465543076b9d75e9fdb73cdb1d68",
	"quick/reweight-only/4":        "50d095a7ed33aa40c842f1f99531b483f3f734fa66bc56cee4d8ee0c89993806",
	"quick/super-only/1":           "4f7428f016eddf4dc730b46fa80596565d844db23c44609c000a54a3625fe89a",
	"quick/super-only/2":           "b2640c25d005df89344aca6e0ad14e100b66bfb305696eb6db3dc07145bd1ffb",
	"quick/super-only/3":           "966ce5a3c0a7f2adc0b92740ab245dbfde2fe530271eebc0b1b3f1fd005cc4bc",
	"quick/super-only/4":           "a740a2912a39165bdcd36427f58fd057407c512fd850d776943215d4f0d09b73",
	"quick/surf-deformer/1":        "215ee6b6f1d2325cf43350d45708186f41e059638fc8315b29fb80effd12fca3",
	"quick/surf-deformer/2":        "9fa859da1d616aa99031853540d4619ad01700c05ae349b0cf7b090377b9d0ee",
	"quick/surf-deformer/3":        "85fbac60f70135207336acfdd244074b3de3ce96f4f3e756989bf1c2860e80f0",
	"quick/surf-deformer/4":        "25c982a9dccae7a52d630794712e890d61fc9df77c926bdd569de8289176d95d",
	"quick/untreated/1":            "71ac9569d45e16150266dcb41d6df31e1343e245896fac31f938b134f3e78d55",
	"quick/untreated/2":            "5186d40e31d021b52e1defee96b08cba6a78121c2cfa359f24aab3be029ba230",
	"quick/untreated/3":            "e5c1089001e8e977410d02db255f5c16d280a6dbcc56df54501a1d318cb2c4bf",
	"quick/untreated/4":            "9299e691c7b04476e03ea32883f16c3284a920a6c90b1886e05570cb6222b091",
}

// squeezedDigests maps "scenario/arm/seed" to the Result digest under a
// private DEM bound of 8 (TestGoldenDigestsSqueezedTable).
var squeezedDigests = map[string]string{
	"device/asc-s/1":               "19e3de2c5fa25d462ebb742d7c1c8e38063346f5ff6a4277ca4d8d7edba3b90b",
	"device/asc-s/2":               "28c8b76a8f8211f74b2a7144767520596425a6350c92cf841cfc35c7f33d361f",
	"device/asc-s/3":               "e239c4686593fa0e340ae4d379541146e9b544ffae51e111a1d592bd69a0b3be",
	"device/asc-s/4":               "9ff4d56db5f20de5253fa86c2c931c0a3d2a898966c8dee66d8c404a22aad5cb",
	"device/reweight-only/1":       "fc23df3742032969da8fd3b140680c26401820d33672e2151f81f684b298de9f",
	"device/reweight-only/2":       "4c9439f4ddd765d67ad91c7cbd0e7c1c607472c799ba2284ffa888f84517a7a5",
	"device/reweight-only/3":       "210c59657604df57457eb249a6fe27c7f1e278356589d4441e706fbe6d41aad3",
	"device/reweight-only/4":       "022e9b5f7e3ee35c48015cf0da6a3b0c3ca6de641372c0e7b61aaae8e1711ab7",
	"device/super-only/1":          "3b65eaff3ad167051e94d2d475ab22dc3f6f4d226796acd319ec240169e54e48",
	"device/super-only/2":          "a42ed70c8f378d57454b1446695f88af79c3f4de629401f73aedea88a0e1f8a7",
	"device/super-only/3":          "326048498c8643446428662dc769704b2f82d7091d4e227eeb173d3a923b3221",
	"device/super-only/4":          "a740a2912a39165bdcd36427f58fd057407c512fd850d776943215d4f0d09b73",
	"device/surf-deformer/1":       "9c93f7555366d1ec01eaf5bb91c313283e3777db07e3e4b8915adb20a6a7cade",
	"device/surf-deformer/2":       "623accf977e1feeb5281882060293990e561fc64a3d284475a7fc45292a7d79b",
	"device/surf-deformer/3":       "2323465a3a6acd2f3db00a10010a67188495a4c1d8ee2d3bf03bbaf20b03de72",
	"device/surf-deformer/4":       "25c982a9dccae7a52d630794712e890d61fc9df77c926bdd569de8289176d95d",
	"device/untreated/1":           "54d0620e728873552f73f2ebda788ad702385da9614dd5e750580e99b99f34bb",
	"device/untreated/2":           "b573ebc77bf44af1f3ae4ac0709d34fd5de3ef49a87a2cafad7c873a5be0567c",
	"device/untreated/3":           "99b9d4836b2d6bd698e836dac3ce0dd606b9568fc56155df17133847c2140633",
	"device/untreated/4":           "9299e691c7b04476e03ea32883f16c3284a920a6c90b1886e05570cb6222b091",
	"drift/asc-s/1":                "f0077c131204492d7d5eb39eac7357b5e1cd5c75266726fc2c5d1b956df387f1",
	"drift/asc-s/2":                "780bdf75374778f57cd74d21aca89800c68736ca9eb45f7eea528164efe9492a",
	"drift/asc-s/3":                "659064f7492de9182d3f11354329dd2f156e8756ae123cfb033a5f725567f7ab",
	"drift/asc-s/4":                "ec78d3c902467cfb53337f8e0edb69e0423c7fbf8a1ae7d294396eac6efb870d",
	"drift/reweight-only/1":        "4366ccf49d69266119b2776eb995d0cc74a66fab13f980063266be088e62cee4",
	"drift/reweight-only/2":        "8cdd7a5b539cbff85a2916126343afd6c4f3d3a0f34a8facaded4358586cd106",
	"drift/reweight-only/3":        "41ac282a41ffae0bf886f2b408659b6355767d092f728a15be7d0571992771af",
	"drift/reweight-only/4":        "b11443796ac0e354b1b99dcd90622806495a7c1abf7338cd0bcf6b2feaa9419b",
	"drift/super-only/1":           "7183f9aee7297bfe813ebdad09d4476733e4459ea6b40140f340357e17711b0d",
	"drift/super-only/2":           "408ec4a232bc484943e377d0f9145eec909c64331b23c55f3299b09a8e2ffa5e",
	"drift/super-only/3":           "d28ead5232a0ba93a89246d49ff8da2bc48785a13e705be47b594d58f556d354",
	"drift/super-only/4":           "12c516d5f26ebaf5ddf0292d0651777812a7ae0dfc6620db2eec92ddd6ad5074",
	"drift/surf-deformer/1":        "0ac2337b0eb0dd8bd4526252649f3e86d4ed7f8117b17c2c4298ef4cdd66fa9d",
	"drift/surf-deformer/2":        "0f561bbc4e12bd1a02172d86c668c766eb0c7499d3f5985e6978b8509f678bd3",
	"drift/surf-deformer/3":        "00db9d3462c2e894a124c04d740104cc16a22de92ef924e0fcb5c34b39760d52",
	"drift/surf-deformer/4":        "9df858c4729b520b2848e3503924898000af7b9ec36ab469c41487cc0688df67",
	"drift/untreated/1":            "326edec9d6fe1bf2d8670227658d4626a232c663d2445686fb26175bd15c0eab",
	"drift/untreated/2":            "0e4f16c84724bce6c956724b6fbf4a65f2871102f6547816c5b1d9eb6efcdd0f",
	"drift/untreated/3":            "5f8774e8b8151c9ea8b7e743bc18e600d5663303ccb0f863df4978bf42f0d3e3",
	"drift/untreated/4":            "0b087ce3d1c265e72b42cad593b811307c243513c0025a9903bb04c17e8b9f43",
	"halflife/asc-s/1":             "e5f217f6cb590660bae426764a2fb2e2bf5e2073d5274f633a228c24365032cb",
	"halflife/asc-s/2":             "cfc8de813bcf76d9709dcd8ba988d3008b7bb28fa9c9fdb85e2540aeba619580",
	"halflife/asc-s/3":             "411a71005e98647863abd4bd43eb0531a39fe95b6671289e9264ed3d9a89bad3",
	"halflife/asc-s/4":             "9ff4d56db5f20de5253fa86c2c931c0a3d2a898966c8dee66d8c404a22aad5cb",
	"halflife/reweight-only/1":     "6561376468e8ee6024bb46306ebce9d5b6ea7639084744cce806b34b78008bf5",
	"halflife/reweight-only/2":     "b6a79577a140b3cd210cd818ce8a6d12b42ac1ec20aa58f068fe08ef10a21eb4",
	"halflife/reweight-only/3":     "73c240cbb21c5c252d7bfb22cce856896aeee7cb9ab8588b9c007867a27cb503",
	"halflife/reweight-only/4":     "d4f47d2d7ac87372554c13640d935dfea322641b79e3a58376ea7f95326acd44",
	"halflife/super-only/1":        "4f7428f016eddf4dc730b46fa80596565d844db23c44609c000a54a3625fe89a",
	"halflife/super-only/2":        "b2640c25d005df89344aca6e0ad14e100b66bfb305696eb6db3dc07145bd1ffb",
	"halflife/super-only/3":        "966ce5a3c0a7f2adc0b92740ab245dbfde2fe530271eebc0b1b3f1fd005cc4bc",
	"halflife/super-only/4":        "a740a2912a39165bdcd36427f58fd057407c512fd850d776943215d4f0d09b73",
	"halflife/surf-deformer/1":     "c6b229c5c309742fd6c2656cb8106df0e8fe5d3dc4cc98d1c59292bb1e6f679f",
	"halflife/surf-deformer/2":     "2cfa8ec89519c715890f0b60361abc5de382fe7d3716ea817c5ba9416f118009",
	"halflife/surf-deformer/3":     "d8694330d685e291b55e3f5757fee91890b97bfd01d9696cd5f63d9cb0b5acb3",
	"halflife/surf-deformer/4":     "0a5fc6b48df0b2cbd3be2ce9a584f78f4835d2111fc2532cc913163804e19247",
	"halflife/untreated/1":         "71ac9569d45e16150266dcb41d6df31e1343e245896fac31f938b134f3e78d55",
	"halflife/untreated/2":         "5186d40e31d021b52e1defee96b08cba6a78121c2cfa359f24aab3be029ba230",
	"halflife/untreated/3":         "e5c1089001e8e977410d02db255f5c16d280a6dbcc56df54501a1d318cb2c4bf",
	"halflife/untreated/4":         "9299e691c7b04476e03ea32883f16c3284a920a6c90b1886e05570cb6222b091",
	"layout-simon/asc-s/1":         "bd179cf51c932eb57f84b1eae3f619af5b9b19da720b2e5386a1ce266051b89d",
	"layout-simon/asc-s/2":         "555b5652c7a72f398feffdb46d351b92f4a8a918ac897d67c29810e441eb6cf1",
	"layout-simon/reweight-only/1": "2f5d1f2f69dd00fa0bada5a0a542c55186339b14207325a82bd2a45f94c2b26e",
	"layout-simon/reweight-only/2": "1b046411892452f1c6e57ab8cd978560f12160adf4a8d18c2bc651ae606ad568",
	"layout-simon/super-only/1":    "cfeb5211ae8a2506bf20f40e56af120407ad28455a5f30e6ececfa9a980233ff",
	"layout-simon/super-only/2":    "d926879ab7a0147edce83427c58ba4fe8c6a0e2e25cd56f9df4d8a3c8684d0b4",
	"layout-simon/surf-deformer/1": "7af8453987dedc440f0bcfd4a293fcb58226e18ded49a657d36e89d79c32952e",
	"layout-simon/surf-deformer/2": "0ec5919ddda0d7c316a1ffdfc4bd178274d6279e8162508152bf957f9ccbffd3",
	"layout-simon/untreated/1":     "0b6055f65cb9ffb2487e2cc5ebc8947e9891036efc5b8ad04b10971811097bb9",
	"layout-simon/untreated/2":     "49e177bb3cc53bb4bb086e83908691a2af57a51a76bb96f9c480f53683a34638",
	"quick/asc-s/1":                "e5f217f6cb590660bae426764a2fb2e2bf5e2073d5274f633a228c24365032cb",
	"quick/asc-s/2":                "cfc8de813bcf76d9709dcd8ba988d3008b7bb28fa9c9fdb85e2540aeba619580",
	"quick/asc-s/3":                "411a71005e98647863abd4bd43eb0531a39fe95b6671289e9264ed3d9a89bad3",
	"quick/asc-s/4":                "9ff4d56db5f20de5253fa86c2c931c0a3d2a898966c8dee66d8c404a22aad5cb",
	"quick/reweight-only/1":        "1eda73fe27ca9f49621b5ed8a52b48998414b9532b3ad409f23c87bf74d8867e",
	"quick/reweight-only/2":        "31ed10cded79a43b1c37408c37dcd54cb8fa699cf348ee6e6532aeb4f5102069",
	"quick/reweight-only/3":        "7d7bdf52200e5322a39af5d00c53de7813f1465543076b9d75e9fdb73cdb1d68",
	"quick/reweight-only/4":        "022e9b5f7e3ee35c48015cf0da6a3b0c3ca6de641372c0e7b61aaae8e1711ab7",
	"quick/super-only/1":           "4f7428f016eddf4dc730b46fa80596565d844db23c44609c000a54a3625fe89a",
	"quick/super-only/2":           "b2640c25d005df89344aca6e0ad14e100b66bfb305696eb6db3dc07145bd1ffb",
	"quick/super-only/3":           "966ce5a3c0a7f2adc0b92740ab245dbfde2fe530271eebc0b1b3f1fd005cc4bc",
	"quick/super-only/4":           "a740a2912a39165bdcd36427f58fd057407c512fd850d776943215d4f0d09b73",
	"quick/surf-deformer/1":        "2168412147867dcbb0945c79c872efcb3b0b1c753739d3956246d48fcd912df9",
	"quick/surf-deformer/2":        "9fa859da1d616aa99031853540d4619ad01700c05ae349b0cf7b090377b9d0ee",
	"quick/surf-deformer/3":        "85fbac60f70135207336acfdd244074b3de3ce96f4f3e756989bf1c2860e80f0",
	"quick/surf-deformer/4":        "25c982a9dccae7a52d630794712e890d61fc9df77c926bdd569de8289176d95d",
	"quick/untreated/1":            "71ac9569d45e16150266dcb41d6df31e1343e245896fac31f938b134f3e78d55",
	"quick/untreated/2":            "5186d40e31d021b52e1defee96b08cba6a78121c2cfa359f24aab3be029ba230",
	"quick/untreated/3":            "e5c1089001e8e977410d02db255f5c16d280a6dbcc56df54501a1d318cb2c4bf",
	"quick/untreated/4":            "9299e691c7b04476e03ea32883f16c3284a920a6c90b1886e05570cb6222b091",
}
