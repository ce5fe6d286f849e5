open Btr_util
module Obs = Btr_obs.Obs

(* The wheel holds exactly the live events: cancel unlinks a cell at
   once, and a dead handle's re-arm links nothing. So a handle is armed
   iff its [cell] is not [nil_cell], and the wheel's length is the
   pending count. *)
type handle = {
  mutable alive : bool;
  mutable fire : t -> unit;
      (* the user's callback, stored directly — no wrapper closure, so
         firing reads one fewer cache line and scheduling allocates
         only the handle *)
  mutable period : int;
      (* -1 one-shot; else the engine re-arms every [period] µs. Native
         rather than closed over: the re-arm state rides the handle
         record the firing path has already loaded. *)
  mutable next_at : Time.t; (* the armed deadline when period >= 0 *)
  mutable cell : handle Twheel.cell; (* the armed cell, or [nil_cell] *)
  eng : t option;
      (* the owning engine, for [cancel]; [None] only on [nil_handle],
         which the wheel's sentinel needs before any engine exists *)
}

and t = {
  mutable clock : Time.t;
  wheel : handle Twheel.t;
  mutable next_seq : int;
  mutable processed : int;
  self : t option; (* the [eng] of every handle this engine creates *)
  rng : Rng.t;
  obs : Obs.t;
  c_scheduled : Obs.Counter.t;
  c_fired : Obs.Counter.t;
  c_cancelled : Obs.Counter.t;
  c_pool : Obs.Counter.t;
  c_cells : Obs.Counter.t;
}

let nop _ = ()

(* The knot the wheel's intrusive cells require: a detached sentinel
   cell whose payload is a dead handle whose cell is the sentinel.
   Shared by every engine — the wheel never mutates its nil, so this is
   safe across campaign domains. *)
let rec nil_handle =
  {
    alive = false;
    fire = nop;
    period = -1;
    next_at = 0;
    cell = nil_cell;
    eng = None;
  }

and nil_cell =
  {
    Twheel.c_at = 0;
    c_seq = 0;
    c_payload = nil_handle;
    c_prev = nil_cell;
    c_next = nil_cell;
    c_lvl = -1;
  }

let create ?(seed = 1) ?obs () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let counter name = Obs.Registry.counter (Obs.registry obs) Obs.Sim name in
  let wheel = Twheel.create ~nil:nil_cell () in
  let rng = Rng.create seed in
  let c_scheduled = counter "engine.scheduled" in
  let c_fired = counter "engine.fired" in
  let c_cancelled = counter "engine.cancelled" in
  let c_pool = counter "engine.pool-reuse" in
  let c_cells = counter "engine.cells" in
  let rec t =
    {
      clock = Time.zero;
      wheel;
      next_seq = 0;
      processed = 0;
      self = Some t;
      rng;
      obs;
      c_scheduled;
      c_fired;
      c_cancelled;
      c_pool;
      c_cells;
    }
  in
  t

let now t = t.clock
let rng t = t.rng
let obs t = t.obs

let new_handle t =
  {
    alive = true;
    fire = nop;
    period = -1;
    next_at = 0;
    cell = nil_cell;
    eng = t.self;
  }

(* A dead handle's re-arm (periodic task cancelled from inside its own
   callback) links nothing but still consumes a sequence number, so
   seq assignment depends only on the op sequence. *)
let push t ~at h =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if h.alive then begin
    if Twheel.pool_ready t.wheel then Obs.Counter.incr t.c_pool
    else Obs.Counter.incr t.c_cells;
    h.cell <- Twheel.add t.wheel ~at ~seq h;
    Obs.Counter.incr t.c_scheduled
  end

let schedule t ~at f =
  if Time.compare at t.clock < 0 then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%s is before now=%s"
         (Time.to_string at) (Time.to_string t.clock));
  let h = new_handle t in
  h.fire <- f;
  push t ~at h;
  h

let schedule_in t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule_in: negative delay";
  schedule t ~at:(Time.add t.clock delay) f

let every t ~period ?start f =
  if period <= 0 then invalid_arg "Engine.every: period must be positive";
  let start =
    match start with Some s -> s | None -> Time.add t.clock period
  in
  (* One handle guards every firing, so cancelling it also voids the
     firing already sitting in the queue. Re-arming is native (see
     [rearm]): it allocates nothing — the freshly recycled cell is
     reused — and touches no state off the handle record. *)
  let h = new_handle t in
  h.fire <- f;
  h.period <- period;
  h.next_at <- start;
  push t ~at:start h;
  h

let cancel h =
  if h.alive then begin
    h.alive <- false;
    match h.eng with
    | Some e when h.cell != nil_cell ->
      Obs.Counter.incr e.c_cancelled;
      ignore (Twheel.unlink e.wheel h.cell : bool);
      h.cell <- nil_cell
    | _ -> ()
  end

(* Periodic re-arm, after the callback returns (so events the callback
   scheduled take earlier seqs). Unconditional on liveness: see
   [push]. *)
let rearm t h =
  if h.period >= 0 then begin
    h.next_at <- Time.add h.next_at h.period;
    push t ~at:h.next_at h
  end

(* Fire the next event at or before [horizon]; every linked cell is
   live. The cell is recycled before firing, so a re-arm inside
   [h.fire] reuses this very cell. *)
let step_until t ~horizon =
  let c = Twheel.pop_at_most t.wheel ~horizon in
  if c == nil_cell then false
  else begin
    let h = c.Twheel.c_payload in
    let at = c.Twheel.c_at in
    h.cell <- nil_cell;
    Twheel.recycle t.wheel c;
    t.clock <- at;
    t.processed <- t.processed + 1;
    Obs.Counter.incr t.c_fired;
    h.fire t;
    rearm t h;
    true
  end

let step t = step_until t ~horizon:Time.infinity

let run ?(until = Time.infinity) t =
  if Obs.enabled t.obs then
    Obs.emit t.obs ~at:t.clock Obs.Sim (Obs.Run_started { until });
  let rec loop () = if step_until t ~horizon:until then loop () in
  loop ();
  if Obs.enabled t.obs then
    Obs.emit t.obs ~at:t.clock Obs.Sim
      (Obs.Run_finished { events = t.processed })

let events_processed t = t.processed
let pending t = Twheel.length t.wheel
