package stomp

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"math/big"
	"net"
	"testing"
	"time"
)

// selfSigned generates an ephemeral server certificate for 127.0.0.1 —
// the paper's broker was "extended with SSL support at the transport
// layer" (§4.2), and this verifies the TLS path end to end.
func selfSigned(t *testing.T) (tls.Certificate, *x509.CertPool) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	template := x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "safeweb-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, &template, &template, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	cert := tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}
	parsed, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(parsed)
	return cert, pool
}

func TestTLSClientServer(t *testing.T) {
	cert, pool := selfSigned(t)

	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Handler: newEchoHandler(),
		TLS:     &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS12},
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	// Plaintext dial against the TLS listener must fail.
	if _, err := Dial(srv.Addr(), ClientConfig{Login: "u"}); err == nil {
		t.Error("plaintext client connected to TLS server")
	}

	client, err := Dial(srv.Addr(), ClientConfig{
		Login: "u",
		TLS:   &tls.Config{RootCAs: pool, MinVersion: tls.VersionTLS12},
	})
	if err != nil {
		t.Fatalf("TLS Dial: %v", err)
	}
	defer client.Close()

	received := make(chan *Frame, 1)
	if _, err := client.SubscribeView("/t", "", nil, func(v *FrameView) { received <- v.Materialize() }); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if err := client.SendImageReceipt(sendImage("/t", map[string]string{"k": "v"}, []byte("over tls")), 5*time.Second); err != nil {
		t.Fatalf("SendImageReceipt: %v", err)
	}
	select {
	case f := <-received:
		if string(f.Body) != "over tls" {
			t.Errorf("body = %q", f.Body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no message over TLS")
	}
}

func TestTLSUntrustedClientRejected(t *testing.T) {
	cert, _ := selfSigned(t)
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Handler: newEchoHandler(),
		TLS:     &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS12},
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A client without the CA must refuse the server certificate.
	if _, err := Dial(srv.Addr(), ClientConfig{
		Login: "u",
		TLS:   &tls.Config{MinVersion: tls.VersionTLS12},
	}); err == nil {
		t.Error("client accepted untrusted certificate")
	}
}
