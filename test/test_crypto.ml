(* SHA-1 against the FIPS 180-1 test vectors plus structural checks. *)

let vectors =
  [
    ("abc", "a9993e364706816aba3e25717850c26c9cd0d89d");
    ("", "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1" );
    ("The quick brown fox jumps over the lazy dog",
     "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
    ("The quick brown fox jumps over the lazy cog",
     "de9f2c7fd25e1b3afad3e85a0bd17d9b100db4b3");
  ]

let test_vectors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "sha1(%S)" input)
        expected
        (Crypto.Sha1.hex_of_string input))
    vectors

let test_million_a () =
  (* FIPS vector: one million 'a's *)
  let s = String.make 1_000_000 'a' in
  Alcotest.(check string) "10^6 x a"
    "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Crypto.Sha1.hex_of_string s)

let test_block_boundaries () =
  (* padding edge cases: lengths 55, 56, 63, 64, 65 around the block
     size trigger the one- vs two-block padding paths *)
  let known =
    [
      (55, "c1c8bbdc22796e28c0e15163d20899b65621d65a");
      (56, "c2db330f6083854c99d4b5bfb6e8f29f201be699");
      (63, "03f09f5b158a7a8cdad920bddc29b81c18a551f5");
      (64, "0098ba824b5c16427bd7a1122a5a442a25ec644d");
      (65, "11655326c708d70319be2610e8a57d9a5b959d3b");
    ]
  in
  List.iter
    (fun (n, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "len %d" n)
        expected
        (Crypto.Sha1.hex_of_string (String.make n 'a')))
    known

let test_digest_forms () =
  let d = Crypto.Sha1.digest_string "abc" in
  Alcotest.(check int) "raw length" 20 (String.length (Crypto.Sha1.to_raw d));
  Alcotest.(check int) "hex length" 40 (String.length (Crypto.Sha1.to_hex d));
  Alcotest.(check bool) "bytes = string" true
    (Crypto.Sha1.equal d (Crypto.Sha1.digest_bytes (Bytes.of_string "abc")));
  Alcotest.(check bool) "different input different digest" false
    (Crypto.Sha1.equal d (Crypto.Sha1.digest_string "abd"))

let avalanche =
  QCheck.Test.make ~name:"distinct strings give distinct digests" ~count:200
    QCheck.(pair string string)
    (fun (s1, s2) ->
      s1 = s2
      || not
           (Crypto.Sha1.equal
              (Crypto.Sha1.digest_string s1)
              (Crypto.Sha1.digest_string s2)))

(* every property in this suite draws from one replayable salt *)
let qcheck = Gen.qcheck ~salt:0x5ac6

let () =
  Alcotest.run "crypto"
    [
      ( "sha1",
        [
          Alcotest.test_case "fips vectors" `Quick test_vectors;
          Alcotest.test_case "million a" `Slow test_million_a;
          Alcotest.test_case "block boundaries" `Quick test_block_boundaries;
          Alcotest.test_case "digest forms" `Quick test_digest_forms;
          qcheck avalanche;
        ] );
    ]
