package fluxquery

// Zero-copy invariant over the differential corpus: the copying Token
// adapter and the zero-copy event path of the scanner must describe the
// exact same stream for every workload document, and the validating
// xsax layer's owned batch copies must agree with its event views too.

import (
	"bytes"
	"io"
	"testing"

	"fluxquery/internal/dtd"
	"fluxquery/internal/workload"
	"fluxquery/internal/xmltok"
	"fluxquery/internal/xsax"
)

type flatTok struct {
	kind  xmltok.Kind
	name  string
	data  string
	attrs []xmltok.Attr
}

func flatEqual(a, b []flatTok) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if a[i].kind != b[i].kind || a[i].name != b[i].name || a[i].data != b[i].data || len(a[i].attrs) != len(b[i].attrs) {
			return i, false
		}
		for j := range a[i].attrs {
			if a[i].attrs[j] != b[i].attrs[j] {
				return i, false
			}
		}
	}
	return 0, true
}

// TestZeroCopyCorpusParity runs every workload generator and checks that
// the scanner's Token adapter and its zero-copy event API produce
// byte-identical streams, with views copied eagerly on the event side.
func TestZeroCopyCorpusParity(t *testing.T) {
	for _, c := range workload.Cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				var doc bytes.Buffer
				if err := c.Gen(&doc, 30_000, seed); err != nil {
					t.Fatal(err)
				}

				var viaTokens []flatTok
				s := xmltok.NewScanner(bytes.NewReader(doc.Bytes()))
				for {
					tok, err := s.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					viaTokens = append(viaTokens, flatTok{
						kind: tok.Kind, name: tok.Name, data: tok.Data,
						attrs: append([]xmltok.Attr(nil), tok.Attrs...),
					})
				}

				var viaEvents []flatTok
				s.Reset(bytes.NewReader(doc.Bytes()))
				for {
					ev, err := s.NextEvent()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					ft := flatTok{kind: ev.Kind, name: string(ev.NameBytes()), data: string(ev.DataBytes())}
					for _, a := range ev.Attrs() {
						ft.attrs = append(ft.attrs, xmltok.Attr{Name: string(a.Name), Value: string(a.Value)})
					}
					viaEvents = append(viaEvents, ft)
				}

				if at, ok := flatEqual(viaTokens, viaEvents); !ok {
					t.Fatalf("seed %d: token and event streams diverge at %d", seed, at)
				}
			}
		})
	}
}

// TestXSAXEventTokenParity checks the validating layer the same way: the
// owned copies a Batch makes of the reader's events (attribute names
// resolved through the symbol table) and the zero-copy event views agree
// on every workload document.
func TestXSAXEventTokenParity(t *testing.T) {
	for _, c := range workload.Cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			var doc bytes.Buffer
			if err := c.Gen(&doc, 30_000, 1); err != nil {
				t.Fatal(err)
			}
			d := dtd.MustParse(c.DTD)

			var viaCopies []flatTok
			r := xsax.NewReader(bytes.NewReader(doc.Bytes()), d)
			b := xsax.GetBatch()
			defer xsax.PutBatch(b)
			for {
				ev, err := r.NextEvent()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				b.Reset()
				b.Append(ev)
				own := &b.Events[0]
				viaCopies = append(viaCopies, flatTok{
					kind: own.Kind, name: own.Name, data: string(own.Data),
					attrs: own.OwnedAttrs(),
				})
			}

			var viaEvents []flatTok
			r.Reset(bytes.NewReader(doc.Bytes()), d)
			for {
				ev, err := r.NextEvent()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				ft := flatTok{kind: ev.Kind, name: ev.Name, data: string(ev.Data)}
				for _, a := range ev.Attrs {
					ft.attrs = append(ft.attrs, xmltok.Attr{Name: string(a.Name), Value: string(a.Value)})
				}
				viaEvents = append(viaEvents, ft)
			}

			if at, ok := flatEqual(viaCopies, viaEvents); !ok {
				t.Fatalf("xsax owned and zero-copy event streams diverge at %d", at)
			}
		})
	}
}
