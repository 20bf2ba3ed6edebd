package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// hashVersion salts the content hash. Bump it whenever the meaning of a
// spec field changes without its value changing (a simulator behaviour
// change that invalidates cached cell results).
const hashVersion = "ustore-spec-v1"

// fleetHashVersion is the salt for mode "fleet" cells. It is bumped on its
// own because the campaign report golden prints hash prefixes of other
// modes' cells, which a fleet-only behaviour change must not move.
// v2: fleet.engine_workers 0 stopped selecting a different event stream
// (every fleet runs on the partitioned engine; 0 only derives the pool size).
// v3: a fleet summary gained its engine line.
// v4: the engine line lost its partition visits (the fleet runs on one
// partition, so they equal the windows).
const fleetHashVersion = "ustore-spec-fleet-v4"

// Canonical renders the decoded, defaulted spec in its canonical byte
// form: JSON with struct-declaration field order. Because the hash is
// computed here — after parsing, defaulting, and validation — two
// documents that decode to the same values share a hash no matter how
// they were formatted, which keys were spelled out versus defaulted, or
// what order the keys appeared in. Changing any value always changes it.
func Canonical(s *Spec) []byte {
	// Spec contains only plain data fields; Marshal cannot fail.
	b, err := json.Marshal(s)
	if err != nil {
		panic("spec: canonical marshal: " + err.Error())
	}
	return b
}

// Hash is the content hash of one cell: sha256 over the version salt and
// the canonical form, hex encoded. Cache entries are keyed by it.
func Hash(s *Spec) string {
	h := sha256.New()
	if s.Mode == "fleet" {
		h.Write([]byte(fleetHashVersion))
	} else {
		h.Write([]byte(hashVersion))
	}
	h.Write([]byte{0})
	h.Write(Canonical(s))
	return hex.EncodeToString(h.Sum(nil))
}
