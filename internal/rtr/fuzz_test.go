package rtr

import (
	"bytes"
	"testing"

	"github.com/netsec-lab/rovista/internal/rpki"
)

// FuzzReadPDU feeds arbitrary bytes to the PDU decoder a cache or router
// runs on everything its peer sends: it must return a PDU or an error and
// never panic, PDU after PDU until the stream ends.
func FuzzReadPDU(f *testing.F) {
	f.Add([]byte(errorReportLengthWrap))
	for _, p := range []*PDU{
		{Version: Version, Type: TypeSerialNotify, Session: 7, Serial: 42},
		{Version: Version, Type: TypeSerialQuery, Session: 7, Serial: 41},
		{Version: Version, Type: TypeResetQuery},
		{Version: Version, Type: TypeCacheResponse, Session: 7},
		PrefixPDU(rpki.VRP{ASN: 64500, Prefix: pfx("192.0.2.0/24"), MaxLength: 24}, true, 7),
		{Version: Version, Type: TypeEndOfData, Session: 7, Serial: 42},
		{Version: Version, Type: TypeCacheReset},
		{Version: Version, Type: TypeErrorReport, Session: ErrInvalidRequest, Text: "bad query"},
	} {
		f.Add(p.Marshal())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			p, err := ReadPDU(r)
			if err != nil {
				return
			}
			if len(p.Text) > len(data) {
				t.Fatalf("decoded %d bytes of text from %d bytes of input", len(p.Text), len(data))
			}
		}
	})
}
