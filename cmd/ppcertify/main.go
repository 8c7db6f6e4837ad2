// Command ppcertify runs the paper's pumping arguments on a protocol and
// emits a portable, machine-checkable certificate that "if this protocol
// computes x ≥ η, then η ≤ A" — or re-checks a previously saved
// certificate from scratch.
//
// Usage:
//
//	ppcertify -protocol binary:7                     # find, check, print
//	ppcertify -protocol binary:7 -o cert.json        # save
//	ppcertify -protocol binary:7 -check cert.json    # re-verify a file
//	ppcertify -protocol leaderflock:3 -pipeline chain
//
// Pipelines: "leaderless" (Theorem 5.9; leaderless protocols only) or
// "chain" (Theorem 4.5; also works with leaders).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/pump"
)

func main() { cli.Main("ppcertify", run) }

func run(args []string) error {
	fs := flag.NewFlagSet("ppcertify", flag.ContinueOnError)
	var (
		spec     = fs.String("protocol", "", cli.SpecUsage)
		file     = fs.String("file", "", "JSON protocol file")
		pipeline = fs.String("pipeline", "leaderless", "proof pipeline: leaderless (Thm 5.9) or chain (Thm 4.5)")
		out      = fs.String("o", "", "write the certificate JSON to this file")
		check    = fs.String("check", "", "re-check an existing certificate file instead of finding one")
		seed     = fs.Uint64("seed", 1, "finder seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ref, err := cli.ProtocolRef(*spec, *file)
	if err != nil {
		return err
	}
	eng := engine.New()
	entry, err := eng.Resolve(ref)
	if err != nil {
		return err
	}
	p := entry.Protocol
	fmt.Printf("protocol: %s (%d states, leaderless=%t)\n", p.Name(), p.NumStates(), p.Leaderless())

	if *check != "" {
		return checkFile(p, *pipeline, *check)
	}

	var kind engine.Kind
	switch *pipeline {
	case "leaderless":
		kind = engine.KindCertifyLeaderless
	case "chain":
		kind = engine.KindCertifyChain
	default:
		return fmt.Errorf("unknown pipeline %q (leaderless|chain)", *pipeline)
	}
	res, err := eng.Do(context.Background(), engine.Request{Kind: kind, Protocol: ref, Seed: *seed})
	if err != nil {
		return err
	}
	cert := res.Certificate
	var payload any = cert.Leaderless
	if cert.Chain != nil {
		payload = cert.Chain
	}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("certificate found and checked: if %s computes x ≥ η, then η ≤ %d (pump step %d)\n",
		p.Name(), cert.A, cert.B)
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("written to %s (%d bytes)\n", *out, len(data))
	} else {
		fmt.Println(string(data))
	}
	return nil
}

func checkFile(p *protocol.Protocol, pipeline, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	switch pipeline {
	case "leaderless":
		var cert pump.LeaderlessCertificate
		if err := json.Unmarshal(data, &cert); err != nil {
			return err
		}
		if err := pump.CheckLeaderless(p, &cert, nil); err != nil {
			return fmt.Errorf("REJECTED: %w", err)
		}
		fmt.Printf("certificate VALID: if %s computes x ≥ η, then η ≤ %d\n", p.Name(), cert.A)
	case "chain":
		var cert pump.ChainCertificate
		if err := json.Unmarshal(data, &cert); err != nil {
			return err
		}
		if err := pump.CheckChain(p, &cert, nil); err != nil {
			return fmt.Errorf("REJECTED: %w", err)
		}
		fmt.Printf("certificate VALID: if %s computes x ≥ η, then η ≤ %d\n", p.Name(), cert.A)
	default:
		return fmt.Errorf("unknown pipeline %q", pipeline)
	}
	return nil
}
