module Raw = Minflo_netlist.Raw

open Minflo_util.Json

let schema_uri =
  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

let rule_index =
  let tbl = Hashtbl.create 32 in
  List.iteri (fun i (r : Rule.t) -> Hashtbl.replace tbl r.id i) Rule.all;
  fun (r : Rule.t) -> Hashtbl.find tbl r.id

let rule_json (r : Rule.t) =
  Obj
    [ ("id", Str r.id);
      ("name", Str r.name);
      ("shortDescription", Obj [ ("text", Str r.summary) ]);
      ( "defaultConfiguration",
        Obj [ ("level", Str (Rule.sarif_level r.severity)) ] ) ]

let result_json (f : Finding.t) =
  let location =
    match f.file with
    | None -> []
    | Some file ->
      let physical =
        ("artifactLocation", Obj [ ("uri", Str file) ])
        ::
        (if f.loc.Raw.line > 0 then
           [ ( "region",
               Obj
                 (("startLine", int f.loc.Raw.line)
                 ::
                 (if f.loc.Raw.col > 0 then
                    [ ("startColumn", int f.loc.Raw.col) ]
                  else [])) ) ]
         else [])
      in
      [ ("locations", List [ Obj [ ("physicalLocation", Obj physical) ] ]) ]
  in
  let properties =
    if f.related = [] then []
    else
      [ ( "properties",
          Obj [ ("related", List (List.map (fun s -> Str s) f.related)) ] ) ]
  in
  Obj
    ([ ("ruleId", Str f.rule.id);
       ("ruleIndex", int (rule_index f.rule));
       ("level", Str (Rule.sarif_level f.rule.severity));
       ("message", Obj [ ("text", Str f.message) ]) ]
    @ location @ properties)

let render ?(tool_version = "0.1.0") findings =
  let doc =
    Obj
      [ ("$schema", Str schema_uri);
        ("version", Str "2.1.0");
        ( "runs",
          List
            [ Obj
                [ ( "tool",
                    Obj
                      [ ( "driver",
                          Obj
                            [ ("name", Str "minflo-lint");
                              ("version", Str tool_version);
                              ( "informationUri",
                                Str "https://github.com/minflo/minflo" );
                              ("rules", List (List.map rule_json Rule.all)) ] )
                      ] );
                  ("results", List (List.map result_json findings)) ] ] ) ]
  in
  to_string doc ^ "\n"
