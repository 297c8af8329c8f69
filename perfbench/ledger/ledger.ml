(* The benchmark's in-process half (see perfbench/README.md).

   Every figure here comes from timing calls into a layer's public
   functions from this file; nothing under lib/ is instrumented.

   - [e2e]: the untraced in-process end-to-end figures (trace set-up,
     the batch engine, portfolio scoring), the batch usage the serve
     validator compares against, and the score packings the Python
     property checks inspect.
   - [trace]: the traced ledger.  It drives the serve stages itself, in
     daemon order, with one span per call, writes the same journals
     [dbp serve] writes (run.py compares them byte for byte), and
     reports per-layer costs, the residual against the untraced
     in-process [Daemon.run]/[Shard.run], and the tracing overhead. *)

open Dbp_core
module Sv = Dbp_serve
module E = Dbp_online.Engine
module Trace = Dbp_workload.Trace
module Runner = Dbp_sim.Runner

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9
let fail fmt = Printf.ksprintf failwith fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let file_size path =
  In_channel.with_open_bin path (fun ic -> Int64.to_int (In_channel.length ic))

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let first_fit () =
  match Sv.Portfolio.by_name "first-fit" with
  | Some e -> e
  | None -> fail "first-fit is not in the serve portfolio"

(* ---- options -------------------------------------------------------- *)

type opts = {
  mutable instance : string;
  mutable arrivals : string;
  mutable score : string list;
  mutable shards : int;
  mutable seconds : float;
  mutable work : string;
  mutable out : string;
}

let parse_opts args =
  let o =
    { instance = ""; arrivals = ""; score = []; shards = 1; seconds = 1.;
      work = "."; out = "-" }
  in
  let spec =
    [
      ("--instance", Arg.String (fun s -> o.instance <- s), "CSV trace");
      ("--arrivals", Arg.String (fun s -> o.arrivals <- s), "JSONL arrivals");
      ( "--score",
        Arg.String (fun s -> o.score <- String.split_on_char ',' s),
        "comma-separated score CSVs" );
      ("--shards", Arg.Int (fun k -> o.shards <- k), "sharded-mode shards");
      ("--seconds", Arg.Float (fun s -> o.seconds <- s), "time budget");
      ("--work", Arg.String (fun s -> o.work <- s), "working directory");
      ("--out", Arg.String (fun s -> o.out <- s), "result JSON path");
    ]
  in
  Arg.parse_argv ~current:(ref 0) args spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ledger (e2e|trace) OPTIONS";
  o

let write_out path text =
  if String.equal path "-" then print_string text
  else Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* ---- e2e ------------------------------------------------------------ *)

(* Usage [dbp serve] must reproduce: Engine.run over the whole instance,
   or over each shard's sub-instance when the stream is sharded. *)
let expected_usage o algo inst =
  if o.shards <= 1 then Packing.total_usage_time (E.run algo inst)
  else begin
    let router = Sv.Router.create ~shards:o.shards () in
    let scratch = Sv.Arrival.scratch () in
    let parts = Array.make o.shards [] in
    In_channel.with_open_bin o.arrivals (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> ()
          | Some line ->
              (match Sv.Arrival.parse_into scratch line with
              | Ok () ->
                  let k = Sv.Arrival.shard_for router scratch in
                  parts.(k) <- Sv.Arrival.item scratch :: parts.(k)
              | Error e -> fail "malformed arrival %S: %s" line e);
              go ()
        in
        go ());
    Array.fold_left
      (fun acc items ->
        if items = [] then acc
        else acc +. Packing.total_usage_time (E.run algo (Instance.of_items items)))
      0. parts
  end

let write_packings path scored =
  Out_channel.with_open_bin path (fun oc ->
      List.iteri
        (fun k inst ->
          List.iter
            (fun (p : Runner.packer) ->
              let packing = p.Runner.pack inst in
              Printf.fprintf oc "packing %d %s %.17g\n" k p.Runner.label
                (Packing.total_usage_time packing);
              List.iter
                (fun it ->
                  Printf.fprintf oc "%d %d\n" (Item.id it)
                    (Packing.bin_of_item packing (Item.id it)))
                (Instance.items inst))
            Runner.default_portfolio)
        scored)

(* A coprocess: after the untimed preparation it answers each ["round"]
   line on stdin with one JSON line of samples, so run.py can
   interleave in-process samples with its [dbp serve] rounds across the
   whole measured window. *)
let e2e o =
  let algo = first_fit () in
  let text = read_file o.instance in
  let inst = Trace.of_string text in
  let scored = List.map (fun p -> Trace.of_string (read_file p)) o.score in
  write_packings (Filename.concat o.work "packings.txt") scored;
  let usage = expected_usage o algo inst in
  let jobs = float_of_int (Instance.length inst) in
  let score_jobs =
    float_of_int (List.fold_left (fun a i -> a + Instance.length i) 0 scored)
  in
  (* Small instances repeat set-up and the batch run so that one sample
     spans at least 20 ms. *)
  let reps_for f =
    let t0 = now_ns () in
    ignore (f ());
    max 1 (int_of_float (0.02 /. Float.max 1e-6 (secs (now_ns () - t0))))
  in
  let setup_reps = reps_for (fun () -> Trace.of_string text) in
  let reps = reps_for (fun () -> E.run algo inst) in
  Printf.printf "{\"engine_usage\":%.17g}\n%!" usage;
  let round () =
    let t0 = now_ns () in
    for _ = 1 to setup_reps do
      ignore (Trace.of_string text)
    done;
    let setup = secs (now_ns () - t0) /. float_of_int setup_reps in
    let t0 = now_ns () in
    for _ = 1 to reps do
      ignore (E.run algo inst)
    done;
    let batch = jobs *. float_of_int reps /. secs (now_ns () - t0) in
    let t0 = now_ns () in
    let scores = List.map (Runner.evaluate Runner.default_portfolio) scored in
    let score = score_jobs /. secs (now_ns () - t0) in
    let evaluate =
      List.map
        (fun scores ->
          "{"
          ^ String.concat ","
              (List.map
                 (fun (s : Runner.score) ->
                   Printf.sprintf "%S:%.17g" s.Runner.label s.Runner.usage)
                 scores)
          ^ "}")
        scores
    in
    Printf.printf
      "{\"setup_s\":%.17g,\"batch_jobs_per_s\":%.17g,\"score_jobs_per_s\":%.17g,\
       \"evaluate\":[%s]}\n%!"
      setup batch score (String.concat "," evaluate)
  in
  let rec loop () =
    match In_channel.input_line stdin with
    | Some "round" ->
        round ();
        loop ()
    | Some _ | None -> ()
  in
  loop ()

(* ---- spans ---------------------------------------------------------- *)

(* One span per call: name, start, end, parent span and the arrival's
   sequence number, in flat growable arrays so recording allocates
   nothing on the per-line path. *)
module Spans = struct
  type t = {
    mutable name : int array;
    mutable start : int array;
    mutable stop : int array;
    mutable parent : int array;
    mutable seq : int array;
    mutable len : int;
    mutable cur : int;
  }

  let create () =
    let c = 1 lsl 16 in
    { name = Array.make c 0; start = Array.make c 0; stop = Array.make c 0;
      parent = Array.make c 0; seq = Array.make c 0; len = 0; cur = -1 }

  let grow t =
    let g a = Array.append a (Array.make (Array.length a) 0) in
    t.name <- g t.name;
    t.start <- g t.start;
    t.stop <- g t.stop;
    t.parent <- g t.parent;
    t.seq <- g t.seq

  let enter t name seq =
    if t.len = Array.length t.name then grow t;
    let i = t.len in
    t.len <- i + 1;
    t.name.(i) <- name;
    t.parent.(i) <- t.cur;
    t.seq.(i) <- seq;
    t.cur <- i;
    t.start.(i) <- now_ns ();
    i

  let leave t i =
    t.stop.(i) <- now_ns ();
    t.cur <- t.parent.(i)

  (* Forget span [i] and everything after it (an input loop's last,
     empty iteration). *)
  let drop t i =
    t.cur <- t.parent.(i);
    t.len <- i
end

let names =
  [| "line"; "io.read"; "arrival.parse"; "arrival.parse_into";
     "router.shard_for"; "session.feed_item"; "stream_engine";
     "journal.write"; "merged.write"; "snapshot.save"; "replay.line";
     "session.replay"; "decision.parse"; "stream_engine.arrive";
     "pool.resident_post"; "lower_bounds.best"; "runner.evaluate";
     "decision.render_into"; "engine.run"; "engine.run_usage" |]

(* Packers get span names of their own, appended after the fixed ones. *)
let packer_names =
  List.map (fun (p : Runner.packer) -> "pack." ^ p.Runner.label)
    Runner.default_portfolio

let all_names = Array.append names (Array.of_list packer_names)

let name_id s =
  let rec go i =
    if i = Array.length all_names then fail "unknown span name %s" s
    else if String.equal all_names.(i) s then i
    else go (i + 1)
  in
  go 0

let n_line = name_id "line"
let n_read = name_id "io.read"
let n_parse = name_id "arrival.parse"
let n_parse_into = name_id "arrival.parse_into"
let n_route = name_id "router.shard_for"
let n_feed = name_id "session.feed_item"
let n_engine = name_id "stream_engine"
let n_journal = name_id "journal.write"
let n_merged = name_id "merged.write"
let n_snapshot = name_id "snapshot.save"
let n_replay_line = name_id "replay.line"
let n_replay = name_id "session.replay"
let n_dparse = name_id "decision.parse"
let n_arrive = name_id "stream_engine.arrive"
let n_post = name_id "pool.resident_post"
let n_lb = name_id "lower_bounds.best"
let n_evaluate = name_id "runner.evaluate"
let n_render = name_id "decision.render_into"
let n_run = name_id "engine.run"
let n_run_usage = name_id "engine.run_usage"

type agg = { calls : int array; total : int array; self : int array }

(* Per-name call counts, total and self times over spans [from, upto).
   Self time is a span's duration minus its children's durations. *)
let aggregate (sp : Spans.t) ~from ~upto =
  let n = Array.length all_names in
  let a = { calls = Array.make n 0; total = Array.make n 0; self = Array.make n 0 } in
  let child = Array.make (upto - from) 0 in
  for i = upto - 1 downto from do
    let d = sp.Spans.stop.(i) - sp.Spans.start.(i) in
    let p = sp.Spans.parent.(i) in
    if p >= from then child.(p - from) <- child.(p - from) + d;
    let k = sp.Spans.name.(i) in
    a.calls.(k) <- a.calls.(k) + 1;
    a.total.(k) <- a.total.(k) + d;
    a.self.(k) <- a.self.(k) + d - child.(i - from)
  done;
  a

(* Every span stays in memory for the aggregates; the file keeps the
   first lines of each pass, enough to inspect without writing hundreds
   of megabytes per round. *)
let spans_written_per_pass = 5000

let write_spans path (sp : Spans.t) =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "span\tname\tstart_ns\tend_ns\tparent\tseq\n";
      for i = 0 to sp.Spans.len - 1 do
        if sp.Spans.seq.(i) < spans_written_per_pass then
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i
          all_names.(sp.Spans.name.(i)) sp.Spans.start.(i) sp.Spans.stop.(i)
          sp.Spans.parent.(i) sp.Spans.seq.(i)
      done)

(* The engine's share of a [Session.feed_item] call, seen through the
   observer hook the session forwards to its [Stream_engine]: the span
   opens at the first callback of the arrival (a drained departure or
   the arrival itself) and closes at the placement callback.  It misses
   only the departure-heap peek before the first callback. *)
let engine_observer sp seq =
  let open_span = ref (-1) in
  let enter () = if !open_span < 0 then open_span := Spans.enter sp n_engine !seq in
  let close () =
    if !open_span >= 0 then begin
      Spans.leave sp !open_span;
      open_span := -1
    end
  in
  let obs =
    Observer.v
      ~on_departure:(fun ~time:_ ~item:_ -> enter ())
      ~on_arrival:(fun ~time:_ ~item:_ -> enter ())
      ~on_place:(fun ~time:_ ~item:_ ~bin:_ -> close ())
      ()
  in
  (obs, close)

let scfg algo = Sv.Session.config ~name:"first-fit" algo

let expect_emit = function
  | Sv.Session.Emit line -> line
  | Sv.Session.Replayed -> fail "unexpected replay outcome"
  | Sv.Session.Skipped r -> fail "arrival skipped: %s" r
  | Sv.Session.Fatal f -> fail "%s" (Sv.Session.fatal_to_string f)

type pass = {
  lines : int;
  wall : int;  (* ns, session creation to the final snapshot *)
  first : int;  (* span range of the pass *)
  last : int;
  parse_words : float;
  feed_words : float;
  saves : int;
}

(* Daemon order, unsharded: read, Arrival.parse, Session.feed_item,
   journal write, Snapshot.save at the session's cadence, and the final
   snapshot of a clean shutdown — [Daemon.run] over a file. *)
let traced_unsharded sp algo ~arrivals ~journal ~snap items =
  let seq = ref 0 in
  let observer, close_engine = engine_observer sp seq in
  let first = sp.Spans.len in
  let t0 = now_ns () in
  let session = Sv.Session.create ~observer (scfg algo) in
  let ic = open_in_bin arrivals and out = open_out_bin journal in
  let pw = ref 0. and fw = ref 0. and saves = ref 0 in
  let save () =
    let s = Spans.enter sp n_snapshot !seq in
    flush out;
    Sv.Snapshot.save ~path:snap (Sv.Session.take_snapshot session);
    Spans.leave sp s;
    incr saves
  in
  let rec loop () =
    let root = Spans.enter sp n_line !seq in
    let r = Spans.enter sp n_read !seq in
    match input_line ic with
    | exception End_of_file -> Spans.drop sp root
    | line ->
        Spans.leave sp r;
        let p = Spans.enter sp n_parse !seq in
        let w0 = Gc.minor_words () in
        let parsed = Sv.Arrival.parse line in
        pw := !pw +. (Gc.minor_words () -. w0);
        Spans.leave sp p;
        let item =
          match parsed with Ok i -> i | Error e -> fail "bad arrival: %s" e
        in
        items := item :: !items;
        let f = Spans.enter sp n_feed !seq in
        let w0 = Gc.minor_words () in
        let outcome = Sv.Session.feed_item session ~depth:0 item in
        fw := !fw +. (Gc.minor_words () -. w0);
        close_engine ();
        Spans.leave sp f;
        let d = expect_emit outcome in
        let j = Spans.enter sp n_journal !seq in
        output_string out d;
        output_char out '\n';
        Spans.leave sp j;
        if Sv.Session.snapshot_due session then save ();
        Spans.leave sp root;
        incr seq;
        loop ()
  in
  loop ();
  (match Sv.Session.finish session with
  | Ok () -> save ()
  | Error f -> fail "%s" (Sv.Session.fatal_to_string f));
  close_out out;
  close_in ic;
  { lines = !seq; wall = now_ns () - t0; first; last = sp.Spans.len;
    parse_words = !pw; feed_words = !fw; saves = !saves }

(* Daemon order, sharded but inline: parse_into and routing as on the
   router thread, each shard's session fed in place of its resident
   domain, the decision written to the shard's segment and, labelled,
   to the merged stream — [Shard.run] without the mailbox. *)
let traced_sharded sp algo ~shards ~arrivals ~merged ~snap ~tenant_counts =
  let seq = ref 0 in
  let observer, close_engine = engine_observer sp seq in
  let first = sp.Spans.len in
  let t0 = now_ns () in
  let router = Sv.Router.create ~shards () in
  let router4 = Sv.Router.create ~shards:(Array.length tenant_counts) () in
  let scratch = Sv.Arrival.scratch () in
  let sessions =
    Array.init shards (fun _ -> Sv.Session.create ~observer (scfg algo))
  in
  let segs = Array.init shards (fun k -> open_out_bin (Sv.Shard.segment_path merged k)) in
  let snaps = Array.init shards (fun k -> snap ^ ".shard" ^ string_of_int k) in
  let prefixes = Array.init shards (Printf.sprintf "{\"shard\":%d,") in
  let mout = open_out_bin merged in
  let ic = open_in_bin arrivals in
  let pw = ref 0. and fw = ref 0. and saves = ref 0 in
  let save k =
    let s = Spans.enter sp n_snapshot !seq in
    flush segs.(k);
    Sv.Snapshot.save ~path:snaps.(k) (Sv.Session.take_snapshot sessions.(k));
    Spans.leave sp s;
    incr saves
  in
  let rec loop () =
    let root = Spans.enter sp n_line !seq in
    let r = Spans.enter sp n_read !seq in
    match input_line ic with
    | exception End_of_file -> Spans.drop sp root
    | line ->
        Spans.leave sp r;
        let p = Spans.enter sp n_parse_into !seq in
        let w0 = Gc.minor_words () in
        let parsed = Sv.Arrival.parse_into scratch line in
        pw := !pw +. (Gc.minor_words () -. w0);
        Spans.leave sp p;
        (match parsed with Ok () -> () | Error e -> fail "bad arrival: %s" e);
        let q = Spans.enter sp n_route !seq in
        let k = Sv.Arrival.shard_for router scratch in
        Spans.leave sp q;
        let t4 = Sv.Router.shard_for router4 (Sv.Arrival.tenant scratch) in
        tenant_counts.(t4) <- tenant_counts.(t4) + 1;
        let f = Spans.enter sp n_feed !seq in
        let w0 = Gc.minor_words () in
        let outcome =
          Sv.Session.feed_item sessions.(k) ~depth:0 (Sv.Arrival.item scratch)
        in
        fw := !fw +. (Gc.minor_words () -. w0);
        close_engine ();
        Spans.leave sp f;
        let d = expect_emit outcome in
        let j = Spans.enter sp n_journal !seq in
        output_string segs.(k) d;
        output_char segs.(k) '\n';
        Spans.leave sp j;
        if Sv.Session.snapshot_due sessions.(k) then save k;
        let m = Spans.enter sp n_merged !seq in
        output_string mout prefixes.(k);
        output_substring mout d 1 (String.length d - 1);
        output_char mout '\n';
        Spans.leave sp m;
        Spans.leave sp root;
        incr seq;
        loop ()
  in
  loop ();
  Array.iteri
    (fun k s ->
      match Sv.Session.finish s with
      | Ok () -> save k
      | Error f -> fail "%s" (Sv.Session.fatal_to_string f))
    sessions;
  Array.iter close_out segs;
  close_out mout;
  close_in ic;
  { lines = !seq; wall = now_ns () - t0; first; last = sp.Spans.len;
    parse_words = !pw; feed_words = !fw; saves = !saves }

(* Resume over the finished journal: a session replaying every entry
   (Decision.parse through the journal pull) and verifying the final
   snapshot's digest. *)
let traced_replay sp algo ~arrivals ~journal ~snap decisions =
  let seq = ref 0 in
  let observer, close_engine = engine_observer sp seq in
  let first = sp.Spans.len in
  let t0 = now_ns () in
  let checkpoint =
    match Sv.Snapshot.load ~path:snap with
    | Ok (s, _) -> Sv.Session.checkpoint_of_snapshot s
    | Error e -> fail "%s" (Sv.Snapshot.error_to_string e)
  in
  let jic = open_in_bin journal in
  let pull () =
    let r = Spans.enter sp n_read !seq in
    match input_line jic with
    | exception End_of_file ->
        Spans.leave sp r;
        None
    | l ->
        Spans.leave sp r;
        let d = Spans.enter sp n_dparse !seq in
        let parsed = Sv.Decision.parse l in
        Spans.leave sp d;
        (match parsed with Ok e -> decisions := e :: !decisions | Error _ -> ());
        Some parsed
  in
  let session =
    Sv.Session.create ~observer ~journal:pull ~checkpoint (scfg algo)
  in
  let ic = open_in_bin arrivals in
  let rec loop () =
    let root = Spans.enter sp n_replay_line !seq in
    let r = Spans.enter sp n_read !seq in
    match input_line ic with
    | exception End_of_file -> Spans.drop sp root
    | line ->
        Spans.leave sp r;
        let p = Spans.enter sp n_parse !seq in
        let parsed = Sv.Arrival.parse line in
        Spans.leave sp p;
        let item =
          match parsed with Ok i -> i | Error e -> fail "bad arrival: %s" e
        in
        let f = Spans.enter sp n_replay !seq in
        let outcome = Sv.Session.feed_item session ~depth:0 item in
        close_engine ();
        Spans.leave sp f;
        (match outcome with
        | Sv.Session.Replayed -> ()
        | o -> ignore (expect_emit o); fail "replay emitted a new decision");
        Spans.leave sp root;
        incr seq;
        loop ()
  in
  loop ();
  (match Sv.Session.finish session with
  | Ok () -> ()
  | Error f -> fail "%s" (Sv.Session.fatal_to_string f));
  close_in ic;
  close_in jic;
  { lines = !seq; wall = now_ns () - t0; first; last = sp.Spans.len;
    parse_words = 0.; feed_words = 0.; saves = 0 }

(* The batch engine's decisions must be the stream engine's, arrival for
   arrival: replay the items through a bare Stream_engine and check
   every bin against the journal. *)
let stream_engine_pass sp algo items decisions =
  let eng = Sv.Stream_engine.create algo in
  let bins = Hashtbl.create 1024 in
  List.iter
    (function
      | Sv.Decision.Placed { job; bin; _ } -> Hashtbl.replace bins job bin
      | Sv.Decision.Rejected _ -> ())
    decisions;
  let first = sp.Spans.len in
  let words = ref 0. and ob = ref 0 and oj = ref 0 in
  Array.iteri
    (fun i item ->
      let s = Spans.enter sp n_arrive i in
      let w0 = Gc.minor_words () in
      let r = Sv.Stream_engine.arrive eng item in
      words := !words +. (Gc.minor_words () -. w0);
      Spans.leave sp s;
      (match r with
      | Ok { Sv.Stream_engine.bin; _ } ->
          if Hashtbl.find_opt bins (Item.id item) <> Some bin then
            fail "stream engine placed job %d apart from the journal"
              (Item.id item)
      | Error e -> fail "%s" (E.error_to_string e));
      ob := max !ob (Sv.Stream_engine.open_bins eng);
      oj := max !oj (Sv.Stream_engine.open_jobs eng))
    items;
  (first, sp.Spans.len, !words, !ob, !oj)

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (now_ns () - t0, r)

let daemon_cfg ~arrivals ~output ~snap =
  { Sv.Daemon.default_config with
    Sv.Daemon.input = Sv.Daemon.In_file arrivals;
    output;
    snapshot_path = Some snap }

let ok_stats = function
  | Ok (s : Sv.Daemon.stats) -> s
  | Error m -> fail "%s" m

type round = (string * string * float) list

let one_round o ~round : round * string =
  let algo = first_fit () in
  let w name = Filename.concat o.work name in
  let lines_f x n = x /. float_of_int n in
  (* Untraced in-process daemons first, so the GC high-water mark is the
     daemon's own. *)
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let d_ns, d_stats =
    time_ns (fun () ->
        Sv.Daemon.run
          (daemon_cfg ~arrivals:o.arrivals ~output:(w "inproc.journal")
             ~snap:(w "inproc.snap"))
          (scfg algo))
  in
  let g1 = Gc.quick_stat () in
  let d_stats = ok_stats d_stats in
  let n = d_stats.Sv.Daemon.lines in
  let s_ns, _ =
    time_ns (fun () ->
        ok_stats
          (Sv.Shard.run
             { Sv.Shard.base =
                 daemon_cfg ~arrivals:o.arrivals ~output:(w "inproc.merged")
                   ~snap:(w "inproc.msnap");
               shards = o.shards; routes = []; metrics_port = None }
             (scfg algo)))
  in
  let segment_bytes =
    List.init o.shards (fun k -> file_size (Sv.Shard.segment_path (w "inproc.merged") k))
    |> List.fold_left ( + ) 0
  in
  let merged_bytes = file_size (w "inproc.merged") in
  let sp = Spans.create () in
  let items = ref [] in
  let u =
    traced_unsharded sp algo ~arrivals:o.arrivals ~journal:(w "ledger.journal")
      ~snap:(w "ledger.snap") items
  in
  let items = Array.of_list (List.rev !items) in
  let tenant_counts = Array.make 4 0 in
  let sh =
    traced_sharded sp algo ~shards:o.shards ~arrivals:o.arrivals
      ~merged:(w "ledger.merged") ~snap:(w "ledger.msnap") ~tenant_counts
  in
  let decisions = ref [] in
  let rp =
    traced_replay sp algo ~arrivals:o.arrivals ~journal:(w "ledger.journal")
      ~snap:(w "ledger.snap") decisions
  in
  let decisions = List.rev !decisions in
  let se_first, se_last, se_words, open_bins, open_jobs =
    stream_engine_pass sp algo items decisions
  in
  (* Decision rendering, once per journal entry into a reused buffer. *)
  let buf = Buffer.create 128 in
  let r_first = sp.Spans.len in
  List.iteri
    (fun i d ->
      let s = Spans.enter sp n_render i in
      Buffer.clear buf;
      Sv.Decision.render_into buf d;
      Spans.leave sp s)
    decisions;
  let r_last = sp.Spans.len in
  (* One mailbox hand-off per line to a resident that does nothing. *)
  let p_first = sp.Spans.len in
  let resident = Dbp_par.Pool.Resident.spawn (fun (_ : Item.t) -> ()) in
  Array.iteri
    (fun i it ->
      let s = Spans.enter sp n_post i in
      Dbp_par.Pool.Resident.post resident it;
      Spans.leave sp s)
    items;
  Dbp_par.Pool.Resident.close resident;
  let p_last = sp.Spans.len in
  (* Set-up and the batch engine. *)
  let text = read_file o.instance in
  let w0 = Gc.minor_words () in
  let t_ns, inst = time_ns (fun () -> Trace.of_string text) in
  let t_words = Gc.minor_words () -. w0 in
  let jobs = Instance.length inst in
  let b_first = sp.Spans.len in
  let w0 = Gc.minor_words () in
  let s = Spans.enter sp n_run 0 in
  ignore (E.run algo inst);
  Spans.leave sp s;
  let run_words = Gc.minor_words () -. w0 in
  let s = Spans.enter sp n_run_usage 0 in
  ignore (E.run_usage algo inst);
  Spans.leave sp s;
  let b_last = sp.Spans.len in
  (* Scoring: the lower bound and every packer on its own, then the whole
     Runner.evaluate. *)
  let c_first = sp.Spans.len in
  List.iteri
    (fun k path ->
      let inst = Trace.of_string (read_file path) in
      let s = Spans.enter sp n_lb k in
      ignore (Dbp_opt.Lower_bounds.best inst);
      Spans.leave sp s;
      List.iter
        (fun (p : Runner.packer) ->
          let s = Spans.enter sp (name_id ("pack." ^ p.Runner.label)) k in
          ignore (p.Runner.pack inst);
          Spans.leave sp s)
        Runner.default_portfolio;
      let s = Spans.enter sp n_evaluate k in
      ignore (Runner.evaluate Runner.default_portfolio inst);
      Spans.leave sp s)
    o.score;
  let c_last = sp.Spans.len in
  let ua = aggregate sp ~from:u.first ~upto:u.last in
  let sa = aggregate sp ~from:sh.first ~upto:sh.last in
  let ra = aggregate sp ~from:rp.first ~upto:rp.last in
  let ea = aggregate sp ~from:se_first ~upto:se_last in
  let da = aggregate sp ~from:r_first ~upto:r_last in
  let pa = aggregate sp ~from:p_first ~upto:p_last in
  let ba = aggregate sp ~from:b_first ~upto:b_last in
  let ca = aggregate sp ~from:c_first ~upto:c_last in
  let per a k = float_of_int a.total.(k) /. float_of_int (max 1 a.calls.(k)) in
  let ms a k = float_of_int a.total.(k) /. 1e6 in
  let pack_ms label = ms ca (name_id ("pack." ^ label)) in
  let layers_self a ~except =
    let s = ref 0 in
    Array.iteri (fun k v -> if not (List.mem k except) then s := !s + v) a.self;
    !s
  in
  let u_layers = layers_self ua ~except:[ n_line ] in
  let s_layers = layers_self sa ~except:[ n_line ] in
  let packers_ms =
    List.fold_left (fun acc l -> acc +. pack_ms l) 0.
      (List.map (fun (p : Runner.packer) -> p.Runner.label) Runner.default_portfolio)
  in
  let evaluate_ms = ms ca n_evaluate in
  let metrics =
    [
      ("trace.of_string_ns_per_line", "ns/line", lines_f (float_of_int t_ns) jobs);
      ("trace.of_string_words_per_line", "words/line", lines_f t_words jobs);
      ("arrival.parse_ns_per_line", "ns/line", per ua n_parse);
      ("arrival.parse_words_per_line", "words/line", lines_f u.parse_words n);
      ("arrival.parse_into_ns_per_line", "ns/line", per sa n_parse_into);
      ("arrival.parse_into_words_per_line", "words/line", lines_f sh.parse_words n);
      ("router.shard_for_ns_per_line", "ns/line", per sa n_route);
      ( "router.max_shard_share", "share",
        float_of_int (Array.fold_left max 0 tenant_counts) /. float_of_int n );
      ("session.feed_item_ns_per_line", "ns/line", per ua n_feed);
      ("session.feed_item_words_per_line", "words/line", lines_f u.feed_words n);
      ("session.replay_ns_per_line", "ns/line", per ra n_replay);
      ("stream_engine.arrive_ns_per_job", "ns/job", per ea n_arrive);
      ("stream_engine.arrive_words_per_job", "words/job", lines_f se_words (Array.length items));
      ("stream_engine.open_bins_max", "count", float_of_int open_bins);
      ("stream_engine.open_jobs_max", "count", float_of_int open_jobs);
      ("decision.render_into_ns_per_line", "ns/line", per da n_render);
      ( "decision.bytes_per_line", "bytes/line",
        lines_f (float_of_int (file_size (w "ledger.journal"))) n );
      ("decision.parse_ns_per_line", "ns/line", per ra n_dparse);
      ("snapshot.save_us", "us", per ua n_snapshot /. 1e3);
      ("snapshot.saves", "count", float_of_int u.saves);
      ("snapshot.bytes", "bytes", float_of_int (file_size (w "ledger.snap")));
      ("daemon.run_ns_per_line", "ns/line", lines_f (float_of_int d_ns) n);
      ("daemon.journal_write_ns_per_line", "ns/line", per ua n_journal);
      ("daemon.residual_ns_per_line", "ns/line", lines_f (float_of_int (d_ns - u_layers)) n);
      ("shard.run_ns_per_line", "ns/line", lines_f (float_of_int s_ns) n);
      ("shard.residual_ns_per_line", "ns/line", lines_f (float_of_int (s_ns - s_layers)) n);
      ("pool.resident_post_ns", "ns", per pa n_post);
      ("shard.segment_bytes", "bytes", float_of_int segment_bytes);
      ("shard.merged_bytes", "bytes", float_of_int merged_bytes);
      ("engine.run_ns_per_job", "ns/job", lines_f (float_of_int ba.total.(n_run)) jobs);
      ("engine.run_usage_ns_per_job", "ns/job", lines_f (float_of_int ba.total.(n_run_usage)) jobs);
      ("engine.run_words_per_job", "words/job", lines_f run_words jobs);
      ("lower_bounds.best_ms", "ms", ms ca n_lb);
      ("ddff.pack_ms", "ms", pack_ms "ddff");
      ("dual_coloring.pack_ms", "ms", pack_ms "dual-coloring");
      ("narrow_wide.pack_ms", "ms", pack_ms "narrow-wide");
      ("runner.evaluate_ms", "ms", evaluate_ms);
      ("runner.residual_ms", "ms", evaluate_ms -. ms ca n_lb -. packers_ms);
      ("gc.minor_words_per_line", "words/line", lines_f (g1.Gc.minor_words -. g0.Gc.minor_words) n);
      ("gc.major_collections", "count", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
      ( "gc.top_heap_mb", "MB",
        float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. );
      ("ledger.overhead_ns_per_line", "ns/line", lines_f (float_of_int (u.wall - d_ns)) n);
    ]
  in
  if round = 0 then write_spans (w "spans.tsv") sp;
  (* The ledger table: where a line's time goes, and what is left. *)
  let table = Buffer.create 2048 in
  let pr fmt = Printf.bprintf table fmt in
  let layer_rows title a ~root ~whole_name ~whole_ns ~layers ~lines =
    pr "%s (%d lines; per line)\n" title lines;
    pr "  %-26s %8s %12s %12s %7s\n" "layer" "calls" "total ns" "self ns" "share";
    Array.iteri
      (fun k c ->
        if c > 0 && k <> root then
          pr "  %-26s %8d %12.0f %12.0f %6.1f%%\n" all_names.(k) c
            (lines_f (float_of_int a.total.(k)) lines)
            (lines_f (float_of_int a.self.(k)) lines)
            (100. *. float_of_int a.self.(k) /. float_of_int whole_ns))
      a.calls;
    pr "  %-26s %8s %12s %12.0f %6.1f%%\n" "residual" "" ""
      (lines_f (float_of_int (whole_ns - layers)) lines)
      (100. *. float_of_int (whole_ns - layers) /. float_of_int whole_ns);
    pr "  %-26s %8s %12s %12.0f %6.1f%%\n" ("= " ^ whole_name) "" ""
      (lines_f (float_of_int whole_ns) lines) 100.
  in
  layer_rows "unsharded ledger vs Daemon.run" ua ~root:n_line ~whole_name:"Daemon.run"
    ~whole_ns:d_ns ~layers:u_layers ~lines:n;
  pr "  tracing overhead: traced pass %.0f ns/line - Daemon.run %.0f ns/line = %.0f ns/line (%.1f%%)\n"
    (lines_f (float_of_int u.wall) n) (lines_f (float_of_int d_ns) n)
    (lines_f (float_of_int (u.wall - d_ns)) n)
    (100. *. float_of_int (u.wall - d_ns) /. float_of_int d_ns);
  layer_rows
    (Printf.sprintf "sharded ledger (%d shard%s, inline) vs Shard.run" o.shards
       (if o.shards = 1 then "" else "s"))
    sa ~root:n_line ~whole_name:"Shard.run" ~whole_ns:s_ns ~layers:s_layers ~lines:n;
  pr "  tracing overhead: traced pass %.0f ns/line - Shard.run %.0f ns/line = %.0f ns/line\n"
    (lines_f (float_of_int sh.wall) n) (lines_f (float_of_int s_ns) n)
    (lines_f (float_of_int (sh.wall - s_ns)) n);
  let r_layers = layers_self ra ~except:[ n_replay_line ] in
  layer_rows "replay (resume) ledger" ra ~root:n_replay_line ~whole_name:"replay pass" ~whole_ns:rp.wall
    ~layers:r_layers ~lines:n;
  pr "score: Runner.evaluate %.1f ms = lower bound %.1f + packers %.1f + residual %.1f\n"
    evaluate_ms (ms ca n_lb) packers_ms (evaluate_ms -. ms ca n_lb -. packers_ms);
  Array.iteri
    (fun k c ->
      if c > 0 && k >= Array.length names then
        pr "  %-26s %8.1f ms %5.1f%% of evaluate\n" all_names.(k) (ms ca k)
          (100. *. ms ca k /. evaluate_ms))
    ca.calls;
  (metrics, Buffer.contents table)


let trace o =
  let start = now_ns () in
  (* Stop before a round that would overrun the budget. *)
  let rec go round acc =
    let m, table = one_round o ~round in
    let acc = m :: acc in
    let spent = secs (now_ns () - start) in
    if spent *. float_of_int (round + 2) /. float_of_int (round + 1) < o.seconds
    then go (round + 1) acc
    else (acc, table, round + 1)
  in
  let rounds, table, count = go 0 [] in
  let value name r = List.find (fun (n, _, _) -> n = name) r |> fun (_, _, v) -> v in
  (* The GC figures come from the first round alone: only there is the
     process fresh, so the heap high-water mark is the daemon's. *)
  let first = List.nth rounds (List.length rounds - 1) in
  let med name =
    if String.starts_with ~prefix:"gc." name then value name first
    else median (List.map (value name) rounds)
  in
  print_string table;
  let algo = first_fit () in
  let inst = Trace.of_string (read_file o.instance) in
  write_out o.out
    (Printf.sprintf
       "{\"rounds\":%d,\"engine_usage\":%.17g,\"engine_usage_sharded\":%.17g,\
        \"metrics\":{%s}}\n"
       count
       (Packing.total_usage_time (E.run algo inst))
       (expected_usage o algo inst)
       (String.concat ","
          (List.map
             (fun (k, unit, _) ->
               Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" k (med k) unit)
             (List.hd rounds))))

(* ---- spawn ---------------------------------------------------------- *)

external spawn_raw : string array -> string -> int * int * int * int
  = "perfbench_spawn"

(* [spawn ERR PROG ARGS...]: run PROG to its end with stderr in ERR and
   print its wall time, CPU time, peak RSS and exit code as JSON. *)
let spawn args =
  if Array.length args < 2 then fail "spawn needs ERR and a program";
  let wall, cpu, rss_kb, code =
    spawn_raw (Array.sub args 1 (Array.length args - 1)) args.(0)
  in
  Printf.printf "{\"wall_s\":%.9f,\"cpu_s\":%.9f,\"maxrss_kb\":%d,\"code\":%d}\n"
    (secs wall) (secs cpu) rss_kb code

let () =
  let args = Sys.argv in
  if Array.length args < 2 then begin
    prerr_endline "usage: ledger (e2e|trace) OPTIONS";
    exit 2
  end;
  let rest = Array.append [| args.(0) |] (Array.sub args 2 (Array.length args - 2)) in
  match args.(1) with
  | "spawn" -> spawn (Array.sub args 2 (Array.length args - 2))
  | "e2e" -> e2e (parse_opts rest)
  | "trace" -> trace (parse_opts rest)
  | c ->
      Printf.eprintf "ledger: unknown subcommand %s\n" c;
      exit 2
