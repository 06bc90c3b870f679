// mavr-randomize performs the MAVR pipeline on an application binary:
// preprocess (extract symbols + pointers), randomize (shuffle function
// blocks), patch (fix control transfers and function pointers), and
// emit the result.
//
// Usage:
//
//	mavr-randomize [-app testapp] [-elf in.elf] [-seed 1]
//	               [-pre out.mavr] [-hex out.hex]
//	mavr-randomize -armory http://127.0.0.1:8737 -vehicle uav-1 [-epoch 0]
//	               [-armory-key <hex>] [-hex out.hex]
//
// With -pre the preprocessed (symbol-prepended HEX) image ready for the
// external flash chip is written; with -hex the randomized image is
// written as Intel HEX.
//
// With -armory the pipeline runs on a mavr-armory daemon instead: the
// base image is submitted for the given vehicle identity and the
// returned artifact — randomized, statically verified and signed
// server-side, with fleet-unique permutation enforced by the armory's
// ledger — is checked (digest + signature) and optionally written.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"mavr/internal/armory"
	"mavr/internal/core"
	"mavr/internal/elfobj"
	"mavr/internal/firmware"
	"mavr/internal/hexfile"
	"mavr/internal/staticverify"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	app := flag.String("app", "testapp", "built-in application profile to generate")
	elfPath := flag.String("elf", "", "randomize an ELF file instead of a generated profile")
	seed := flag.Int64("seed", 1, "permutation seed")
	preOut := flag.String("pre", "", "write the preprocessed (prepended-HEX) image here")
	hexOut := flag.String("hex", "", "write the randomized image as Intel HEX here")
	elfOut := flag.String("out-elf", "", "write the randomized image as an ELF (with relocated symbols) here")
	moves := flag.Bool("moves", false, "print the per-function layout diff")
	noVerify := flag.Bool("no-verify", false, "skip the static patch-completeness verification post-pass")
	armoryURL := flag.String("armory", "", "submit to the mavr-armory daemon at this base URL instead of randomizing locally")
	vehicle := flag.String("vehicle", "", "vehicle identity for -armory submissions")
	epoch := flag.Uint64("epoch", 0, "re-randomization epoch for -armory submissions")
	armoryKey := flag.String("armory-key", "", "armory signing key (hex; empty: built-in dev key)")
	flag.Parse()

	elf, err := firmware.LoadELF(*elfPath, *app)
	if err != nil {
		return err
	}

	if *armoryURL != "" {
		return runArmory(elf, *armoryURL, *vehicle, *epoch, *armoryKey, *hexOut)
	}

	pre, err := core.Preprocess(elf)
	if err != nil {
		return err
	}
	fmt.Printf("preprocess: %d blocks, region [0x%X,0x%X), %d data-section function pointers\n",
		len(pre.Blocks), pre.RegionStart, pre.RegionEnd, len(pre.PtrOffsets))
	fmt.Printf("entropy: %.0f bits\n", core.EntropyBits(len(pre.Blocks)))

	if *preOut != "" {
		f, err := os.Create(*preOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := pre.WriteTo(f); err != nil {
			return err
		}
		fmt.Printf("wrote preprocessed image to %s\n", *preOut)
	}

	r, err := core.Randomize(pre, core.Permutation(rand.New(rand.NewSource(*seed)), len(pre.Blocks)))
	if err != nil {
		return err
	}
	fmt.Printf("randomize: patched %d control transfers, %d function pointers\n",
		r.PatchedTransfers, r.PatchedPointers)

	if !*noVerify {
		rep := staticverify.Verify(pre, r, staticverify.Options{Gadgets: false})
		fmt.Printf("verify: %d transfers, %d vectors, %d pointers proven remapped\n",
			rep.Diff.TransfersChecked, rep.Diff.VectorsChecked, rep.Diff.PointersChecked)
		if !rep.OK() {
			for _, f := range rep.Findings {
				fmt.Fprintln(os.Stderr, f)
			}
			return fmt.Errorf("static verification failed with %d errors; image not written", rep.Errors())
		}
	}

	if *moves {
		for _, m := range r.Moves(pre) {
			fmt.Println("  " + m)
		}
	}

	if *hexOut != "" {
		f, err := os.Create(*hexOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := hexfile.Encode(f, r.Image); err != nil {
			return err
		}
		fmt.Printf("wrote randomized image to %s\n", *hexOut)
	}
	if *elfOut != "" {
		out := &elfobj.File{
			Text:     r.Image,
			Data:     elf.Data,
			DataAddr: elf.DataAddr,
			DataLMA:  elf.DataLMA,
			Symbols:  r.Symbols(pre),
		}
		raw, err := out.Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*elfOut, raw, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote randomized ELF to %s\n", *elfOut)
	}
	return nil
}

// runArmory is the client mode: submit the base image, check the
// artifact, print the verification verdict, optionally write the hex.
func runArmory(elf *elfobj.File, url, vehicle string, epoch uint64, keyHex, hexOut string) error {
	if vehicle == "" {
		return fmt.Errorf("-armory requires -vehicle")
	}
	secret := armory.DefaultSecret
	if keyHex != "" {
		key, err := hex.DecodeString(keyHex)
		if err != nil {
			return fmt.Errorf("bad -armory-key: %w", err)
		}
		secret = key
	}
	raw, err := elf.Marshal()
	if err != nil {
		return err
	}
	art, err := armory.NewClient(url, secret).Randomize(raw, vehicle, epoch)
	if err != nil {
		return err
	}
	fmt.Printf("armory: base %s\n", art.BaseDigest)
	fmt.Printf("armory: artifact %s (perm %s, attempt %d, cache hit %v)\n",
		art.ArtifactDigest, art.PermDigest[:16], art.Attempts, art.CacheHit)
	fmt.Printf("armory: signature verified; report: %d findings (%d errors, %d warnings)\n",
		len(art.Report.Findings), art.Report.Errors(), art.Report.Warnings())
	fmt.Printf("verify: %d transfers, %d vectors, %d pointers proven remapped\n",
		art.Report.Diff.TransfersChecked, art.Report.Diff.VectorsChecked, art.Report.Diff.PointersChecked)
	if hexOut != "" {
		f, err := os.Create(hexOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := hexfile.Encode(f, art.Image); err != nil {
			return err
		}
		fmt.Printf("wrote armory artifact to %s\n", hexOut)
	}
	return nil
}
