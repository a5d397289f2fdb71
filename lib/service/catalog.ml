open Lb_observe

let strs xs = Json.Arr (List.map (fun s -> Json.Str s) xs)
let ints xs = Json.Arr (List.map (fun i -> Json.Int i) xs)

let wakeup_report_json (r : Lb_faults.Certify.wakeup_report) =
  Json.Obj
    [
      ("target", Json.Str r.Lb_faults.Certify.algorithm);
      ("plan", Json.Str (Lb_faults.Fault_plan.name r.Lb_faults.Certify.wplan));
      ("n", Json.Int r.Lb_faults.Certify.wn);
      ("seed", Json.Int r.Lb_faults.Certify.wseed);
      ("status", Json.Str (Lb_faults.Certify.status_string r.Lb_faults.Certify.wstatus));
      ("certified", Json.Bool (r.Lb_faults.Certify.wstatus <> Lb_faults.Certify.Violated));
      ("reasons", strs r.Lb_faults.Certify.wreasons);
      ("notes", strs r.Lb_faults.Certify.wnotes);
      ("woke", ints r.Lb_faults.Certify.woke);
      ("crashed", ints r.Lb_faults.Certify.crashed_pids);
      ("false_claim", Json.Bool r.Lb_faults.Certify.false_claim);
    ]

let find_corpus_entry name =
  match Lb_wakeup.Corpus.find name with
  | Some e -> Some e
  | None ->
    List.find_opt
      (fun (e : Lb_wakeup.Corpus.entry) -> e.Lb_wakeup.Corpus.name = name)
      (Lb_wakeup.Corpus.cheaters ~n_hint:64)

let compute ~jobs (request : Request.t) =
  match request.Request.spec with
  | Request.Experiment { id; quick } -> (
    match List.assoc_opt id (Lb_experiments.Experiments.thunks ~jobs ~quick ()) with
    | Some thunk -> Ok (Lb_experiments.Table.to_json (thunk ()))
    | None ->
      Error
        (Printf.sprintf "unknown experiment %S (have: %s)" id
           (String.concat ", " Lb_experiments.Experiments.ids)))
  | Request.Certify { target; plan; n; ops; seed } -> (
    match Lb_faults.Fault_plan.of_name ~n plan with
    | None ->
      Error
        (Printf.sprintf "unknown fault plan %S (one of: %s, joined with '+')" plan
           (String.concat ", " Lb_faults.Fault_plan.plan_names))
    | Some plan -> (
      match Lb_faults.Targets.find target with
      | Some construction ->
        Ok
          (Lb_conformance.Conform.json_of_certification
             (Lb_conformance.Conform.certify ~construction ~plan ~n ~ops ~seed))
      | None -> (
        match find_corpus_entry target with
        | Some entry ->
          Ok
            (wakeup_report_json
               (Lb_faults.Certify.run_wakeup ~algorithm:entry.Lb_wakeup.Corpus.name
                  ~make:entry.Lb_wakeup.Corpus.make ~plan ~n ~seed
                  ~randomized:entry.Lb_wakeup.Corpus.randomized ()))
        | None ->
          Error
            (Printf.sprintf
               "unknown certification target %S (a construction: adt-tree, herlihy, \
                consensus-list, direct; or a wakeup corpus entry)"
               target))))
  | Request.Conform { target; otype; plan; n; ops; schedules; seed } -> (
    match Lb_conformance.Conform.find_construction target with
    | None ->
      Error
        (Printf.sprintf
           "unknown conformance target %S (adt-tree, herlihy, consensus-list, direct)" target)
    | Some construction -> (
      match Lb_conformance.Fuzz.find_type otype with
      | None ->
        Error
          (Printf.sprintf "unknown object type %S (one of: %s)" otype
             (String.concat ", " Lb_conformance.Fuzz.type_names))
      | Some ot when not (Lb_conformance.Fuzz.supports ~construction ot) ->
        Error
          (Printf.sprintf "construction %S does not implement object type %S" target otype)
      | Some ot -> (
        match Lb_faults.Fault_plan.of_name ~n plan with
        | None ->
          Error
            (Printf.sprintf "unknown fault plan %S (one of: %s, joined with '+')" plan
               (String.concat ", " Lb_faults.Fault_plan.plan_names))
        | Some fault_plan ->
          Ok
            (Lb_conformance.Conform.json_of_cell
               (Lb_conformance.Fuzz.check_cell ~construction ~ot ~plan_name:plan
                  ~plan:fault_plan ~n ~ops ~schedules ~seed ~max_states:200_000 ())))))
  | Request.Echo { tag; size; work } ->
    (* Deterministic fill derived from the tag, so any two runs of the same
       echo produce byte-identical payloads — the drills compare them.
       [work] chains MD5 rounds over the tag: a pure, verifiable CPU spin
       the load generator uses to give cache misses a known cost. *)
    let fill =
      String.init size (fun i -> Char.chr (Char.code 'a' + ((i + String.length tag) mod 26)))
    in
    let digest = ref (Digest.string tag) in
    for _ = 1 to work do
      digest := Digest.string !digest
    done;
    Ok
      (Json.Obj
         ([ ("tag", Json.Str tag); ("size", Json.Int size); ("fill", Json.Str fill) ]
         @ if work = 0 then []
           else [ ("work", Json.Int work); ("digest", Json.Str (Digest.to_hex !digest)) ]))
