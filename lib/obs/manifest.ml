(* HEAD is either a hash or a "ref: ..." pointer into refs/ or
   packed-refs. *)
let git_rev () =
  let read path =
    try
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Some (String.trim s)
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when not (String.length head > 5 && String.sub head 0 5 = "ref: ")
    -> head
  | Some head -> (
    let ref_name = String.trim (String.sub head 5 (String.length head - 5)) in
    match read (".git/" ^ ref_name) with
    | Some hash -> hash
    | None -> (
      match read ".git/packed-refs" with
      | None -> "unknown"
      | Some packed -> (
        let lines = String.split_on_char '\n' packed in
        let matching =
          List.find_opt
            (fun line ->
              match String.index_opt line ' ' with
              | Some i ->
                String.sub line (i + 1) (String.length line - i - 1) = ref_name
              | None -> false)
            lines
        in
        match matching with
        | Some line -> String.sub line 0 (String.index line ' ')
        | None -> "unknown")))

let make ~schema ~jobs ~config fields =
  Json.Obj
    (("schema", Json.String schema)
    :: ("git_rev", Json.String (git_rev ()))
    :: ("jobs", Json.Int jobs)
    :: ("config", Json.String config)
    :: fields)
