open Lb_memory

type 'a t = {
  memory : Memory.t;
  processes : 'a Process.t array;
  assignment : Coin.assignment;
}

let create ?memory ?(assignment = Coin.constant 0) ~n program_of =
  if n <= 0 then invalid_arg "System.create: n must be positive";
  let memory = match memory with Some m -> m | None -> Memory.create () in
  Lb_observe.Tracer.attach_memory memory;
  { memory; processes = Array.init n (fun i -> Process.create ~id:i (program_of i)); assignment }

let n t = Array.length t.processes
let memory t = t.memory

let process t pid =
  if pid < 0 || pid >= Array.length t.processes then
    invalid_arg (Printf.sprintf "System.process: pid %d out of range" pid);
  t.processes.(pid)

let processes t = t.processes

(* Under a relaxed memory model ({!Lb_memory.Memory_model}), pending flushes
   are scheduling choices too, named by {!Lb_memory.Store_buffer.flush_id}. *)
let runnable t =
  let pids =
    Array.to_list t.processes
    |> List.filter_map (fun p ->
           Process.advance_local p t.assignment;
           if Process.is_terminated p then None else Some (Process.id p))
  in
  match pids with
  | [] ->
    (* Quiescence: every process has terminated, so remaining buffered
       writes drain deterministically — with no reads left, flush order is
       unobservable and enumerating it would be noise. *)
    Memory.drain_all t.memory;
    []
  | _ :: _ ->
    pids
    @ List.map
        (fun (pid, reg) -> Store_buffer.flush_id ~n:(n t) ~pid ~reg)
        (Memory.flushable t.memory)

let step t ~pid =
  match Store_buffer.flush_of_id ~n:(n t) pid with
  | Some (pid, reg) -> Memory.flush t.memory ~pid ~reg
  | None ->
    let p = process t pid in
    Process.advance_local p t.assignment;
    if not (Process.is_terminated p) then ignore (Process.exec_op p t.memory ~round:(-1))

type outcome = All_terminated | Out_of_fuel | Stalled

type diagnostics = {
  outcome : outcome;
  steps : int;
  last_scheduled : int option;
  ops_per_process : (int * int) list;
  unfinished : int list;
}

let diagnostics_event d =
  let outcome : Lb_observe.Event.run_outcome =
    match d.outcome with
    | All_terminated -> All_terminated
    | Out_of_fuel -> Out_of_fuel
    | Stalled -> Stalled
  in
  Lb_observe.Event.Run_end
    { outcome; steps = d.steps; ops = d.ops_per_process; unfinished = d.unfinished }

let run_diagnosed t choice ~fuel =
  let last = ref None in
  let rec go step_index remaining =
    match runnable t with
    | [] -> (All_terminated, step_index)
    | runnable_pids ->
      if remaining = 0 then (Out_of_fuel, step_index)
      else (
        match choice ~step:step_index ~runnable:runnable_pids with
        | None -> (Stalled, step_index)
        | Some pid ->
          last := Some pid;
          if Lb_observe.Tracer.active () then
            Lb_observe.Tracer.record
              (Lb_observe.Event.Sched
                 { step = step_index; chosen = pid; runnable = runnable_pids });
          step t ~pid;
          go (step_index + 1) (remaining - 1))
  in
  let outcome, steps = go 0 fuel in
  let diagnostics =
    {
      outcome;
      steps;
      last_scheduled = !last;
      ops_per_process =
        Array.to_list (Array.map (fun p -> (Process.id p, Process.shared_ops p)) t.processes);
      unfinished =
        Array.to_list t.processes
        |> List.filter_map (fun p ->
               if Process.is_terminated p then None else Some (Process.id p));
    }
  in
  if Lb_observe.Tracer.active () then
    Lb_observe.Tracer.record (diagnostics_event diagnostics);
  diagnostics

let run t choice ~fuel = (run_diagnosed t choice ~fuel).outcome

let results t =
  Array.map
    (fun p -> match Process.status p with Process.Terminated x -> Some x | Process.Running -> None)
    t.processes

let result_exn t pid =
  match Process.status (process t pid) with
  | Process.Terminated x -> x
  | Process.Running -> invalid_arg (Printf.sprintf "System.result_exn: p%d still running" pid)

let pp_outcome ppf = function
  | All_terminated -> Format.pp_print_string ppf "all terminated"
  | Out_of_fuel -> Format.pp_print_string ppf "out of fuel"
  | Stalled -> Format.pp_print_string ppf "stalled"

let pp_diagnostics ppf d =
  Format.fprintf ppf "%a after %d steps" pp_outcome d.outcome d.steps;
  (match d.last_scheduled with
  | Some pid -> Format.fprintf ppf "; last scheduled p%d" pid
  | None -> Format.fprintf ppf "; nothing was ever scheduled");
  Format.fprintf ppf "; ops:";
  List.iter (fun (pid, k) -> Format.fprintf ppf " p%d=%d" pid k) d.ops_per_process;
  match d.unfinished with
  | [] -> ()
  | pids ->
    Format.fprintf ppf "; unfinished: {%s}"
      (String.concat ", " (List.map (Printf.sprintf "p%d") pids))
