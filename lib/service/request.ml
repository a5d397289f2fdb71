open Lb_observe

type spec =
  | Experiment of { id : string; quick : bool }
  | Certify of { target : string; plan : string; n : int; ops : int; seed : int }
  | Conform of {
      target : string;
      otype : string;
      plan : string;
      n : int;
      ops : int;
      schedules : int;
      seed : int;
    }
  | Echo of { tag : string; size : int; work : int }

type t = { spec : spec; jobs : int }

let experiment ?(quick = false) id =
  { spec = Experiment { id = String.lowercase_ascii id; quick }; jobs = 1 }

let certify ?(n = 8) ?(ops = 1) ?(seed = 1) ~target ~plan () =
  { spec = Certify { target; plan; n; ops; seed }; jobs = 1 }

let conform ?(otype = "fetch-inc") ?(plan = "none") ?(n = 4) ?(ops = 4) ?(schedules = 200)
    ?(seed = 1) ~target () =
  { spec = Conform { target; otype; plan; n; ops; schedules; seed }; jobs = 1 }

let echo ?(size = 0) ?(work = 0) tag =
  if size < 0 then invalid_arg "Request.echo: size < 0";
  if work < 0 then invalid_arg "Request.echo: work < 0";
  { spec = Echo { tag; size; work }; jobs = 1 }

let with_jobs t jobs = { t with jobs }

(* The canonical field order.  [kind] always comes first so a human reading
   the JSONL cache can tell entries apart at a glance; everything else is
   explicit — defaults never round-trip invisibly. *)
let to_json t =
  match t.spec with
  | Experiment { id; quick } ->
    Json.Obj
      [
        ("kind", Json.Str "experiment");
        ("id", Json.Str id);
        ("quick", Json.Bool quick);
        ("jobs", Json.Int t.jobs);
      ]
  | Certify { target; plan; n; ops; seed } ->
    Json.Obj
      [
        ("kind", Json.Str "certify");
        ("target", Json.Str target);
        ("plan", Json.Str plan);
        ("n", Json.Int n);
        ("ops", Json.Int ops);
        ("seed", Json.Int seed);
        ("jobs", Json.Int t.jobs);
      ]
  | Conform { target; otype; plan; n; ops; schedules; seed } ->
    Json.Obj
      [
        ("kind", Json.Str "conform");
        ("target", Json.Str target);
        ("otype", Json.Str otype);
        ("plan", Json.Str plan);
        ("n", Json.Int n);
        ("ops", Json.Int ops);
        ("schedules", Json.Int schedules);
        ("seed", Json.Int seed);
        ("jobs", Json.Int t.jobs);
      ]
  | Echo { tag; size; work } ->
    Json.Obj
      [
        ("kind", Json.Str "echo");
        ("tag", Json.Str tag);
        ("size", Json.Int size);
        ("work", Json.Int work);
        ("jobs", Json.Int t.jobs);
      ]

let of_json json =
  match json with
  | Json.Obj _ -> (
    let str name = Option.bind (Json.member name json) Json.to_str_opt in
    let int ~default name =
      match Option.bind (Json.member name json) Json.to_int_opt with
      | Some v -> v
      | None -> default
    in
    let bool ~default name =
      match Option.bind (Json.member name json) Json.to_bool_opt with
      | Some v -> v
      | None -> default
    in
    let jobs = int ~default:1 "jobs" in
    (* An empty workload would be judged vacuously: sizes start at 1. *)
    let positive kind fields k =
      match List.find_opt (fun (_, v) -> v < 1) fields with
      | Some (name, v) -> Error (Printf.sprintf "%s request has %S = %d (must be >= 1)" kind name v)
      | None -> k ()
    in
    match str "kind" with
    | Some "experiment" -> (
      match str "id" with
      | Some id ->
        Ok
          {
            spec =
              Experiment { id = String.lowercase_ascii id; quick = bool ~default:false "quick" };
            jobs;
          }
      | None -> Error "experiment request lacks an \"id\" field")
    | Some "certify" -> (
      match (str "target", str "plan") with
      | Some target, Some plan ->
        let n = int ~default:8 "n" and ops = int ~default:1 "ops" in
        positive "certify" [ ("n", n); ("ops", ops) ] (fun () ->
            Ok { spec = Certify { target; plan; n; ops; seed = int ~default:1 "seed" }; jobs })
      | None, _ -> Error "certify request lacks a \"target\" field"
      | _, None -> Error "certify request lacks a \"plan\" field")
    | Some "conform" -> (
      match str "target" with
      | Some target ->
        let n = int ~default:4 "n"
        and ops = int ~default:4 "ops"
        and schedules = int ~default:200 "schedules" in
        positive "conform" [ ("n", n); ("ops", ops); ("schedules", schedules) ] (fun () ->
            Ok
              {
                spec =
                  Conform
                    {
                      target;
                      otype = (match str "otype" with Some s -> s | None -> "fetch-inc");
                      plan = (match str "plan" with Some s -> s | None -> "none");
                      n;
                      ops;
                      schedules;
                      seed = int ~default:1 "seed";
                    };
                jobs;
              })
      | None -> Error "conform request lacks a \"target\" field")
    | Some "echo" -> (
      match str "tag" with
      | Some tag ->
        let size = int ~default:0 "size" in
        let work = int ~default:0 "work" in
        if size < 0 then Error "echo request has a negative \"size\""
        else if work < 0 then Error "echo request has a negative \"work\""
        else Ok { spec = Echo { tag; size; work }; jobs }
      | None -> Error "echo request lacks a \"tag\" field")
    | Some other -> Error (Printf.sprintf "unknown request kind %S" other)
    | None -> Error "request lacks a \"kind\" field")
  | _ -> Error "request is not a JSON object"

(* MD5 (stdlib Digest) of the canonical serialisation with jobs forced to 1:
   stable across processes and OCaml versions, which Hashtbl.hash is not. *)
let key t = Digest.to_hex (Digest.string (Json.to_string (to_json { t with jobs = 1 })))

let describe t =
  match t.spec with
  | Experiment { id; quick } ->
    Printf.sprintf "experiment %s (%s)" id (if quick then "quick" else "full")
  | Certify { target; plan; n; ops; seed } ->
    Printf.sprintf "certify %s under %s, n=%d ops=%d seed=%d" target plan n ops seed
  | Conform { target; otype; plan; n; ops; schedules; seed } ->
    Printf.sprintf "conform %s/%s under %s, n=%d ops=%d schedules=%d seed=%d" target otype plan
      n ops schedules seed
  | Echo { tag; size; work } ->
    if work = 0 then Printf.sprintf "echo %s (%dB)" tag size
    else Printf.sprintf "echo %s (%dB, work=%d)" tag size work

let equal a b = a.spec = b.spec

let pp ppf t = Format.pp_print_string ppf (describe t)
