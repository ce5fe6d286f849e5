open Btr_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Time *)

let test_time_units () =
  check_int "ms" 1_000 (Time.ms 1);
  check_int "sec" 1_000_000 (Time.sec 1);
  check_int "add" (Time.ms 3) (Time.add (Time.ms 1) (Time.ms 2));
  check_int "round-trip of_sec_f" (Time.ms 1500) (Time.of_sec_f 1.5);
  Alcotest.(check (float 1e-9)) "to_sec_f" 0.25 (Time.to_sec_f (Time.ms 250))

let test_time_infinity () =
  check_int "add inf" Time.infinity (Time.add Time.infinity (Time.sec 5));
  check_int "add to inf" Time.infinity (Time.add (Time.sec 5) Time.infinity);
  check_bool "inf is max" true (Time.compare Time.infinity (Time.sec 1000000) > 0)

let test_time_lcm () =
  check_int "lcm 4 6" 12 (Time.lcm 4 6);
  check_int "lcm periods" (Time.ms 20) (Time.lcm (Time.ms 4) (Time.ms 10));
  check_int "lcm same" (Time.ms 5) (Time.lcm (Time.ms 5) (Time.ms 5))

let test_time_pp () =
  Alcotest.(check string) "s" "2s" (Time.to_string (Time.sec 2));
  Alcotest.(check string) "ms" "15ms" (Time.to_string (Time.ms 15));
  Alcotest.(check string) "us" "7us" (Time.to_string 7);
  Alcotest.(check string) "inf" "inf" (Time.to_string Time.infinity)

(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  check_bool "different streams" true (xs <> ys)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let child = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int child 1_000_000) in
  check_bool "split stream differs" true (xs <> ys)

let test_rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    check_bool "in [0,10)" true (v >= 0 && v < 10);
    let w = Rng.int_in r 5 8 in
    check_bool "in [5,8]" true (w >= 5 && w <= 8);
    let f = Rng.float r 2.0 in
    check_bool "float in [0,2)" true (f >= 0.0 && f < 2.0)
  done

let test_rng_sample () =
  let r = Rng.create 11 in
  let s = Rng.sample r 3 [ 1; 2; 3; 4; 5 ] in
  check_int "sample size" 3 (List.length s);
  check_int "distinct" 3 (List.length (List.sort_uniq Int.compare s));
  check_int "sample oversized" 2 (List.length (Rng.sample r 10 [ 1; 2 ]))

let test_rng_gaussian () =
  let r = Rng.create 13 in
  let xs = List.init 5000 (fun _ -> Rng.gaussian r ~mean:10.0 ~stddev:2.0) in
  let m = Stats.mean xs in
  check_bool "mean near 10" true (Float.abs (m -. 10.0) < 0.2);
  let sd = Stats.stddev xs in
  check_bool "sd near 2" true (Float.abs (sd -. 2.0) < 0.2)

(* Json *)

let test_json_escape () =
  let b = Buffer.create 32 in
  Json.escape b "a\"b\\c\n\r\t\x01\xc3\xa9";
  Alcotest.(check string)
    "escape table" "a\\\"b\\\\c\\n\\r\\t\\u0001\xc3\xa9" (Buffer.contents b)

let test_json_writers () =
  let b = Buffer.create 64 in
  Buffer.add_char b '{';
  Json.int b "a" (-1);
  Json.str b "b" "x\"y";
  Json.key b "c";
  Buffer.add_char b '{';
  Json.bool b "d" true;
  Buffer.add_char b '}';
  Json.ints b "e" [ 1; 2 ];
  Json.ints b "f" [];
  Buffer.add_char b '}';
  Alcotest.(check string)
    "commas placed" "{\"a\":-1,\"b\":\"x\\\"y\",\"c\":{\"d\":true},\"e\":[1,2],\"f\":[]}"
    (Buffer.contents b);
  Alcotest.(check string) "empty object" "{}" (Json.to_string [])

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "reject %S" s) true (Result.is_error (Json.parse s)))
    [
      "";
      "{";
      "{\"a\":}";
      "{\"a\":1,}";
      "{\"a\":1}x";
      "[1]";
      "{\"a\":{}}";
      "{\"a\":1.5}";
      "{\"a\":1e3}";
      "{\"a\":99999999999999999999}";
      "{\"a\":null}";
    ]

let test_json_unescapes () =
  match Json.parse "{\"s\":\"a\\\"b\\n\\u0041\",\"n\":-3,\"b\":true}" with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok fields ->
    check_bool "string unescaped" true (Json.get_str fields "s" = Some "a\"b\nA");
    check_bool "negative int" true (Json.get_int fields "n" = Some (-3));
    check_bool "bool" true (Json.get_bool fields "b" = Some true);
    check_bool "accessors check the type" true
      (Json.get_str fields "n" = None && Json.get_int fields "missing" = None)

(* Encode -> parse -> re-encode is the identity on arbitrary field
   lists, byte for byte. Strings exercise the full escape table
   (quotes, backslashes, control bytes, high bytes pass through raw). *)
let prop_json_roundtrip =
  let gen =
    let open QCheck.Gen in
    let any_char = map Char.chr (int_bound 255) in
    let any_string = string_size ~gen:any_char (int_bound 12) in
    let value =
      oneof
        [
          map (fun i -> Json.Int i) int;
          map (fun b -> Json.Bool b) bool;
          map (fun s -> Json.Str s) any_string;
        ]
    in
    list_size (int_bound 8) (pair any_string value)
  in
  let print fields =
    String.concat ";"
      (List.map
         (fun (k, v) ->
           Printf.sprintf "%S=%s" k
             (match v with
             | Json.Str s -> Printf.sprintf "Str %S" s
             | Json.Int i -> Printf.sprintf "Int %d" i
             | Json.Bool b -> Printf.sprintf "Bool %b" b))
         fields)
  in
  QCheck.Test.make ~name:"flat json encode/parse round-trip" ~count:300
    (QCheck.make ~print gen) (fun fields ->
      let line = Json.to_string fields in
      match Json.parse line with
      | Error m -> QCheck.Test.fail_reportf "unparseable %S: %s" line m
      | Ok back ->
        if back <> fields then
          QCheck.Test.fail_reportf "fields changed: %s <> %s" (print back) (print fields)
        else if Json.to_string back <> line then
          QCheck.Test.fail_reportf "re-encode not byte-identical: %S <> %S"
            (Json.to_string back) line
        else true)

(* Stats *)

let test_stats_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  check_int "count" 4 s.count;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.max;
  Alcotest.(check (float 1e-9)) "p50" 2.5 s.p50

let test_stats_percentile () =
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile [ 3.0; 1.0; 2.0 ] 0.0);
  Alcotest.(check (float 1e-9)) "p100" 3.0 (Stats.percentile [ 3.0; 1.0; 2.0 ] 100.0);
  Alcotest.(check (float 1e-9)) "singleton" 5.0 (Stats.percentile [ 5.0 ] 90.0)

let test_stats_histogram () =
  let h = Stats.histogram ~buckets:2 [ 0.0; 1.0; 2.0; 3.0 ] in
  check_int "buckets" 2 (List.length h);
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  check_int "all counted" 4 total;
  check_int "empty data" 0 (List.length (Stats.histogram ~buckets:3 []))

let test_stats_acc () =
  let acc = Stats.Acc.create () in
  Stats.Acc.add acc 1.0;
  Stats.Acc.add acc 3.0;
  check_int "count" 2 (Stats.Acc.count acc);
  Alcotest.(check (list (float 1e-9))) "order" [ 1.0; 3.0 ] (Stats.Acc.values acc)

let prop_percentile_within_range =
  QCheck.Test.make ~name:"percentile stays within data range" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 100.0)) (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let v = Stats.percentile xs p in
      let lo = List.fold_left Stdlib.min Float.infinity xs in
      let hi = List.fold_left Stdlib.max Float.neg_infinity xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* Table *)

let test_table_render () =
  let t = Table.create ~title:"demo" ~header:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333" ];
  check_int "rows" 2 (Table.row_count t);
  let s = Table.render t in
  check_bool "has title" true
    (String.length s > 0 && String.sub s 0 7 = "== demo");
  check_bool "pads short rows" true (String.length s > 20)

let suite =
  [
    ("time units", `Quick, test_time_units);
    ("time infinity", `Quick, test_time_infinity);
    ("time lcm", `Quick, test_time_lcm);
    ("time pp", `Quick, test_time_pp);
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seeds differ", `Quick, test_rng_seeds_differ);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng bounds", `Quick, test_rng_bounds);
    ("rng sample", `Quick, test_rng_sample);
    ("rng gaussian", `Slow, test_rng_gaussian);
    ("json escape", `Quick, test_json_escape);
    ("json member writers", `Quick, test_json_writers);
    ("flat json rejects garbage", `Quick, test_json_rejects_garbage);
    ("flat json unescapes", `Quick, test_json_unescapes);
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    ("stats summary", `Quick, test_stats_summary);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats histogram", `Quick, test_stats_histogram);
    ("stats acc", `Quick, test_stats_acc);
    ("table render", `Quick, test_table_render);
    QCheck_alcotest.to_alcotest prop_percentile_within_range;
  ]
