package epid

import (
	"crypto/ecdsa"
	"crypto/x509"
	"encoding/json"
	"fmt"
)

// issuerState is the serialized form of an Issuer. Persisting the group
// issuing key is a simulation affordance: in deployments the issuer is
// Intel's provisioning service, and platforms are provisioned at
// manufacture. Multi-process runs of this repo need the issuer shared
// between the IAS process and the container-host process.
type issuerState struct {
	GID     GroupID `json:"gid"`
	KeyDER  []byte  `json:"key_der"` // PKCS#8 ECDSA
	Members int     `json:"members"`
}

// Export serialises the issuer.
func (is *Issuer) Export() ([]byte, error) {
	is.mu.Lock()
	defer is.mu.Unlock()
	der, err := x509.MarshalPKCS8PrivateKey(is.key)
	if err != nil {
		return nil, fmt.Errorf("epid: exporting issuer key: %w", err)
	}
	return json.Marshal(issuerState{GID: is.gid, KeyDER: der, Members: is.members})
}

// ImportIssuer reconstructs an issuer from Export output.
func ImportIssuer(data []byte) (*Issuer, error) {
	var st issuerState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("epid: importing issuer: %w", err)
	}
	keyAny, err := x509.ParsePKCS8PrivateKey(st.KeyDER)
	if err != nil {
		return nil, fmt.Errorf("epid: importing issuer key: %w", err)
	}
	key, ok := keyAny.(*ecdsa.PrivateKey)
	if !ok {
		return nil, fmt.Errorf("epid: issuer key type %T unsupported", keyAny)
	}
	return &Issuer{gid: st.GID, key: key, members: st.Members}, nil
}
