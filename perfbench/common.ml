(* Measurement plumbing shared by every workload: clocks, order statistics,
   the round loop, output checks and the report printed at the end. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Quantile by linear interpolation between closest ranks (the
   "inclusive" definition); [nan] on no samples. *)
let quantile q xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let sumi xs = List.fold_left ( + ) 0 xs

(* ---- the reference computation ----

   On a shared host the machine's speed drifts by tens of percent within a
   minute, which would swamp any change worth detecting.  So the workloads
   call [tick] before each timed item.  Every 20 ms it times a fixed
   computation — allocation and sorting, no library code — three times,
   and it returns the median of the latest three: the gated item times are
   reported in units of the reference time measured just before them. *)

let reference () =
  let l = List.init 1024 (fun i -> ((i * 7919) land 1023, i)) in
  List.fold_left (fun a (x, y) -> a + (x * y)) 0 (List.sort compare l)

let reference_samples = ref []
let last_reference = ref 0.0
let current_reference = ref nan

(* The median of [k] fresh reference times. *)
let sample_reference k =
  let latest = List.init k (fun _ -> snd (time (fun () -> Sys.opaque_identity (reference ())))) in
  reference_samples := latest @ !reference_samples;
  current_reference := median latest;
  last_reference := now ();
  !current_reference

let tick () =
  if now () -. !last_reference >= 0.02 then sample_reference 3 else !current_reference

let reference_ms () = 1000.0 *. median !reference_samples

(* Time a long item against five fresh reference times just before it and
   five just after. *)
let time_ref f =
  let before = sample_reference 5 in
  let x, dt = time f in
  (x, dt, dt /. ((before +. sample_reference 5) /. 2.0))

let geomean xs =
  exp (sum (List.map log xs) /. float_of_int (List.length xs))

(* Seeds for the generated inputs: a splitmix-style hash of the run seed
   and a tag, so every workload input is a pure function of [--seed]. *)
let derive seed tag = Lb_runtime.Coin.hash ~seed ~pid:(Hashtbl.hash tag) ~idx:0

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ---- the report ---- *)

type report = {
  mutable attempted : int;  (** outputs produced and checked. *)
  mutable failed : int;  (** failed output checks, give-ups and errors. *)
  mutable undecided : int;  (** judgements that ran out of checker budget. *)
  mutable details : (string * float * string) list;  (** newest first. *)
}

let report () = { attempted = 0; failed = 0; undecided = 0; details = [] }

(* One output check.  A failure is counted, named on stderr, and makes the
   run incorrect. *)
let check r name ok =
  if not ok then begin
    r.failed <- r.failed + 1;
    Printf.eprintf "CHECK FAILED: %s\n%!" name
  end

let detail r name value unit = r.details <- (name, value, unit) :: r.details

(* [rounds ~seconds f] calls [f i] for i = 0, 1, ... until [seconds] of
   wall time have passed, and at least [min] times. *)
let rounds ?(min = 1) ~seconds f =
  let t0 = now () in
  let rec go i acc =
    if i >= min && now () -. t0 >= seconds then List.rev acc else go (i + 1) (f i :: acc)
  in
  go 0 []

(* The reference time on the machine the benchmark was tuned on (2 vCPUs,
   shared): the median of [reference_ms] over its runs. *)
let nominal_reference_s = 0.24e-3

(* Set-up repeated at least [min] times and until [seconds] of set-up time
   have passed.  Each set-up is timed against five fresh reference times
   just before it (not after: a set-up that forks leaves the next
   allocations paying for copy-on-write), and the set-up time is the median
   of those ratios
   converted to seconds at [nominal_reference_s]: seconds on the tuning
   machine, with this host's speed at the moment of each set-up taken out.
   The raw median goes to the detail lines.  The last result is the one the
   run uses and the others are [discard]ed, untimed. *)
let setup r ?(min = 9) ?(seconds = 1.0) ?(discard = ignore) f =
  let rec go k raws rels =
    let before = sample_reference 5 in
    let x, dt = time f in
    let raws = dt :: raws and rels = (dt /. before) :: rels in
    if k >= min && sum raws >= seconds then begin
      detail r "setup_raw_s" (median raws) "s";
      (x, nominal_reference_s *. median rels)
    end
    else begin
      discard x;
      go (k + 1) raws rels
    end
  in
  go 1 [] []

(* Tracing overhead of a traced run: the traced rounds' median time, less
   the probes they add on purpose, against the untraced rounds' median.
   The first round runs untraced and pays for heap growth, so it is left
   out when another untraced round exists. *)
let overhead_pct ?(probes = [ 0.0 ]) ~untraced ~traced () =
  let untraced = match untraced with _ :: (_ :: _ as rest) -> rest | _ -> untraced in
  100.0 *. (median traced -. median probes -. median untraced) /. median untraced

let print_result r ~metrics =
  List.iter
    (fun (name, value, _) -> check r (name ^ " is a finite number") (Float.is_finite value))
    metrics;
  List.iter
    (fun (name, value, unit) -> Printf.printf "  %-36s %14.6g %s\n" name value unit)
    (List.rev r.details);
  let frac k = float_of_int k /. float_of_int (max 1 r.attempted) in
  Printf.printf "  %-36s %14d\n  %-36s %14d\n  %-36s %14d\n" "attempted" r.attempted "failed"
    r.failed "undecided" r.undecided;
  Printf.printf "  %-36s %14.6g ratio\n  %-36s %14.6g ratio\n" "failed_frac" (frac r.failed)
    "undecided_frac" (frac r.undecided);
  let fields =
    List.map
      (fun (name, value, unit) ->
        let value = if Float.is_finite value then value else 0.0 in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) (max 1 r.attempted) r.failed (String.concat ", " fields)
